"""JSON file formats: models, morphisms, SCMs, families, records.

Every loader checks the whole file before any computation starts: the shape
itself, each object's rules through its constructor, called by ``_build``.
A violation is a SchemaError naming the file, the JSON path and the reason.
Writers produce deterministic output (sorted keys, fixed list orders), so
reports and emitted files are byte-stable.  Model and morphism files are
rendered from their maps' positions, byte for byte as ``json.dumps(data,
indent=2, sort_keys=True)`` lays out their data.
"""

from __future__ import annotations

import json
import os
import weakref
from dataclasses import fields, is_dataclass, replace
from json.encoder import encode_basestring_ascii as _enc
from typing import Any, Callable, Mapping

from .core import (
    ActionModel,
    CausalGroundError,
    FactoredSpace,
    FiniteSet,
    ID_LABEL,
    MapTableError,
    SEP,
    TotalMap,
    _gather,
)
from .abstraction import ModelMorphism
from .checkers import MechanismRecord, _holds
from .dominoes import LineFamily, _States
from .scm import DEFAULT_SLOT, Scm


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
    except (ValueError, RecursionError) as exc:  # decode errors are ValueErrors
        raise SchemaError(path, "$", f"invalid JSON: {exc}") from None


def dump_json(data: Any, path: str, *refs: str) -> None:
    # Rendered before the file is opened, so a render error leaves it as it
    # was.  Each table is rendered as one string, and every piece is held
    # until the last is written, so the whole text is held at once (the
    # line7 item of ROADMAP.md plans a temporary file instead).
    pieces = _pieces(data, *refs)
    with open(path, "w", encoding="utf-8") as fh:
        fh.writelines(pieces)


def to_json(data: Any, *refs: str) -> str:
    """JSON text, indent 2, keys sorted.  Models and morphisms are rendered from
    positions; a morphism's models are inline unless ``refs`` names their files."""
    return "".join(_pieces(data, *refs))


def _pieces(data: Any, *refs: str) -> list[str]:
    """The pieces of ``to_json(data, *refs)``, in order."""
    if isinstance(data, ActionModel):
        return _model(data, 0) + ["\n"]
    if isinstance(data, ModelMorphism):
        return _morphism(data, *refs) + ["\n"]
    return [json.dumps(data, indent=2, sort_keys=True), "\n"]


def _block(items: list[str], depth: int) -> str:
    """A list of rendered items at ``depth``, laid out as indent=2."""
    inner = "\n" + "  " * (depth + 1)
    return f"[{inner}{(',' + inner).join(items)}\n{'  ' * depth}]" if items else "[]"


def _object(items: dict[str, list[str]], depth: int) -> list[str]:
    """The pieces of an object at ``depth``, keys sorted, from its values' pieces."""
    inner, pieces = ",\n" + "  " * (depth + 1), []
    for key, value in sorted(items.items()):
        pieces += [f"{inner}{_enc(key)}: ", *value]
    close = "\n" + "  " * depth + "}"
    return ["{" + pieces[0][1:], *pieces[1:], close] if pieces else ["{}"]


class _Keys:
    """A set's labels JSON-encoded once, in sorted order, and entry prefixes
    per depth.  Built once per set, by ``of``, and kept while the set lives."""

    @classmethod
    def of(cls, s: FiniteSet) -> "_Keys":
        keys = _KEPT_KEYS.get(s)
        if keys is None:
            keys = _KEPT_KEYS[s] = cls(s)
        return keys

    def __init__(self, s: FiniteSet):
        self.encoded = list(map(_enc, s.elements))
        self.order = sorted(range(len(s)), key=s.elements.__getitem__)
        self.prefixes: dict[int, list[str]] = {}

    def table(self, codes: list[int], values: Any, depth: int) -> str:
        """The object at ``depth`` sending i to ``values[codes[i]]``, as one string."""
        if depth not in self.prefixes:
            sep = ",\n" + "  " * (depth + 1)
            self.prefixes[depth] = [f"{sep}{self.encoded[i]}: " for i in self.order]
        parts = self.prefixes[depth] * 2
        parts[::2] = self.prefixes[depth]
        parts[1::2] = [values[codes[i]] for i in self.order]
        parts[0] = "{" + parts[0][1:]
        parts.append("\n" + "  " * depth + "}")
        return "".join(parts)


# Weak keys: an entry goes with its set, so no set's keys outlive it.
_KEPT_KEYS: "weakref.WeakKeyDictionary[FiniteSet, _Keys]" = weakref.WeakKeyDictionary()


def _rows(space: FactoredSpace, codes: list[int], depth: int) -> dict[int, str]:
    """The value row of each code in ``codes`` as a list at ``depth``."""
    distinct = [*set(codes)]
    columns = [
        [_enc(dom.elements[k]) for k in space._project((v,), distinct)]
        for v, dom in space.variables
    ]  # no variables: every row is empty
    return {c: _block([col[r] for col in columns], depth) for r, c in enumerate(distinct)}


def _expect(data: Any, typ, file: str, path: str, what: str):
    # bool subclasses int, but a JSON true is not an integer
    if not isinstance(data, typ) or (typ is int and isinstance(data, bool)):
        raise SchemaError(file, path, f"expected {what}")
    return data


def _string(data: Any, file: str, path: str) -> str:
    return _expect(data, str, file, path, "a string")


def _string_list(data: Any, file: str, path: str) -> list[str]:
    _expect(data, list, file, path, "a list of strings")
    if not set(map(type, data)) <= {str}:  # one pass; the first bad entry only on failure
        for i, item in enumerate(data):
            _string(item, file, f"{path}[{i}]")
    return data


def _string_map(data: Any, file: str, path: str) -> dict[str, str]:
    _expect(data, dict, file, path, "an object of strings")
    for key, value in data.items():
        _string(value, file, f"{path}.{key}")
    return data


def _label_part(text: str, file: str, path: str, what="label", whole=True) -> None:
    """Words and variable flags are written and parsed comma-joined, so a
    generator label, any string that becomes part of one, and a variable
    id must not contain ','.  A ``whole`` label or id must not be empty
    either: an empty flag names the empty word or the empty subset."""
    if "," in text:
        raise SchemaError(file, path, f"{what} must not contain ','")
    if whole and not text:
        raise SchemaError(file, path, f"{what} must not be empty")


def _int_list(data: Any, file: str, path: str) -> list[int]:
    _expect(data, list, file, path, "a list of integers")
    for i, item in enumerate(data):
        _expect(item, int, file, f"{path}[{i}]", "an integer")
    return data


def _table(
    table: Any, domain: FiniteSet, codomain: FiniteSet, file: str, path: str
) -> TotalMap:
    """A loaded table as a TotalMap, each entry checked in one pass.  A bad
    entry is named at ``path.<element>``; a value that is not a string is
    reported first, as ``_string_map`` reports it."""
    _expect(table, dict, file, path, "an object of strings")
    try:
        return TotalMap(domain, codomain, table)
    except (MapTableError, TypeError) as exc:  # TypeError: an unhashable value
        _string_map(table, file, path)
        raise SchemaError(file, f"{path}.{exc.element}", str(exc)) from None


def _outcome_table(
    data: Any, domain: FiniteSet, space: FactoredSpace, file: str, path: str
) -> TotalMap:
    """A loaded table of value rows, one value per variable of ``space``,
    coded as columns in one pass.  Only a table that pass rejects is checked
    entry by entry: each row's shape in file order, then the joined labels."""
    table = _expect(data, dict, file, path, "an object")
    arity = len(space.variables)
    try:
        rows = _gather(table, domain.elements)
        shaped = set(map(type, rows)) == {list} and set(map(len, rows)) == {arity}
        if shaped and len(table) == len(rows):
            columns = [[row[i] for row in rows] for i in range(arity)]
            return TotalMap._of(domain, space.total, space._code(columns))
    except (KeyError, TypeError):  # TypeError: an unhashable value
        pass
    joined = {}
    for x, row in table.items():
        values = _string_list(row, file, f"{path}.{x}")
        if len(values) != arity:
            reason = f"expected {arity} values, got {len(values)}"
            raise SchemaError(file, f"{path}.{x}", reason)
        joined[x] = SEP.join(values)
    return _table(joined, domain, space.total, file, path)


def _variable(
    entry: Any, file: str, path: str, reserved: tuple[str, ...] = ()
) -> tuple[str, FiniteSet]:
    """A variable's id and domain; values must avoid the reserved tokens."""
    _expect(entry, dict, file, path, "an object")
    vid = _string(entry.get("id"), file, f"{path}.id")
    _label_part(vid, file, f"{path}.id", "variable id")
    values = _string_list(entry.get("values"), file, f"{path}.values")
    tokens = (SEP,) + reserved
    for value in values:
        if SEP in value or value in reserved:
            reason = f"value {value!r} clashes with the reserved tokens {tokens}"
            raise SchemaError(file, f"{path}.values", reason)
    return vid, _build(file, f"{path}.values", FiniteSet, vid, values)


def _build(file: str, path: str, make: Callable, *args, **kwargs) -> Any:
    """``make(*args, **kwargs)``, whose ValueError or CausalGroundError is a
    SchemaError at ``path``.  Never a loader: its SchemaError names its path."""
    try:
        return make(*args, **kwargs)
    except (ValueError, CausalGroundError) as exc:
        raise SchemaError(file, path, str(exc)) from None


# --- action models -----------------------------------------------------------

def model_from_dict(data: Any, file: str = "<inline>") -> ActionModel:
    _expect(data, dict, file, "$", "an object")
    for key in ("states", "variables", "process", "generators"):
        if key not in data:
            raise SchemaError(file, f"$.{key}", "missing required key")

    states = _string_list(data["states"], file, "states")
    states = _build(file, "states", FiniteSet, "X", states)

    variables = _expect(data["variables"], list, file, "variables", "a list")
    if not variables:
        raise SchemaError(file, "variables", "must not be empty")
    var_pairs = tuple(
        _variable(entry, file, f"variables[{i}]") for i, entry in enumerate(variables)
    )
    space = _build(file, "variables", FactoredSpace, var_pairs)

    process = _outcome_table(data["process"], states, space, file, "process")

    gen_data = _expect(data["generators"], dict, file, "generators", "an object")
    generators = {}
    for label, gen_table in gen_data.items():
        path = f"generators.{label}"
        _label_part(label, file, path)
        gen = _table(gen_table, states, states, file, path)
        if label == ID_LABEL and gen != TotalMap.identity(states):
            raise SchemaError(file, path, "must be the identity map")
        generators[label] = gen

    return ActionModel(states, space, generators, process)


def load_model(path: str) -> ActionModel:
    return model_from_dict(load_json(path), path)


def _model(model: ActionModel, depth: int) -> list[str]:
    keys, codes, space = _Keys.of(model.states), model.process._codes, model.outcomes
    variables = [
        {"id": [_enc(v)], "values": [_block([*map(_enc, d.elements)], depth + 3)]}
        for v, d in space.variables
    ]
    return _object({
        "generators": _object({
            label: [keys.table(gen._codes, keys.encoded, depth + 2)]
            for label, gen in model.generators.items() if label != ID_LABEL
        }, depth + 1),
        "process": [keys.table(codes, _rows(space, codes, depth + 2), depth + 1)],
        "states": [_block(keys.encoded, depth + 1)],
        "variables": [_block(["".join(_object(v, depth + 2)) for v in variables], depth + 1)],
    }, depth)


# --- morphisms ---------------------------------------------------------------

def _resolve_model(entry: Any, file: str, path: str, base_dir: str) -> ActionModel:
    if isinstance(entry, str):
        if "\0" in entry:
            raise SchemaError(file, path, "file reference must not contain a NUL character")
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

    state_map = _table(data["state_map"], source.states, target.states, path, "state_map")
    outcome_map = _outcome_table(
        data["outcome_map"], source.outcomes.total, target.outcomes, path, "outcome_map"
    )

    alphabet = data.get("alphabet_map")
    if alphabet is not None:
        for a in _string_map(alphabet, path, "alphabet_map"):
            if a not in source.generators:
                raise SchemaError(path, f"alphabet_map.{a}", "unknown in the source")
    return _build(
        path, "$", ModelMorphism, source, target, state_map, outcome_map, alphabet
    )


def _morphism(m: ModelMorphism, source_ref: str = "", target_ref: str = "") -> list[str]:
    codes, targets = m.outcome_map._codes, _Keys.of(m.target.states).encoded
    rows = _rows(m.target.outcomes, codes, 2)
    return _object({
        "alphabet_map": _object({a: [_enc(b)] for a, b in m.alphabet_map.items()}, 1),
        "outcome_map": [_Keys.of(m.source.outcomes.total).table(codes, rows, 1)],
        "source_model": [_enc(source_ref)] if source_ref else _model(m.source, 1),
        "state_map": [_Keys.of(m.source.states).table(m.state_map._codes, targets, 1)],
        "target_model": [_enc(target_ref)] if target_ref else _model(m.target, 1),
    }, 0)


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

    exogenous = [
        _variable(entry, file, f"exogenous[{i}]")
        for i, entry in enumerate(exo_data)
    ]
    endogenous = []
    parents = {}
    functions = {}
    for i, entry in enumerate(endo_data):
        path = f"endogenous[{i}]"
        vid, dom = _variable(entry, file, path, (DEFAULT_SLOT,))
        _label_part("".join(dom.elements), file, f"{path}.values", "value", False)
        endogenous.append((vid, dom))
        parents[vid] = tuple(
            _string_list(entry.get("parents", []), file, f"{path}.parents")
        )
        table_data = _expect(
            entry.get("function_table"), dict, file, f"{path}.function_table", "an object"
        )
        table = {}
        arity = len(parents[vid]) + 1
        for key, value in table_data.items():
            at = f"{path}.function_table.{key}"
            parts = tuple(key.split(SEP))
            if len(parts) != arity:
                raise SchemaError(file, at, f"key must have {arity} separated values")
            table[parts] = _string(value, file, at)
        functions[vid] = table

    # Pad with unit exogenous variables where the SCM declares none.
    declared = {vid for vid, _ in exogenous + endogenous}
    for i, (vid, _) in enumerate(endogenous[len(exogenous):], len(exogenous)):
        if f"U_{vid}" in declared:
            reason = f"the noise id 'U_{vid}' padded for {vid!r} is declared already"
            raise SchemaError(file, f"endogenous[{i}]", reason)
        exogenous.append((f"U_{vid}", FiniteSet(f"U_{vid}", ("*",))))

    return _build(file, "$", Scm, tuple(exogenous), tuple(endogenous), parents, functions)


def load_scm(path: str) -> Scm:
    return scm_from_dict(load_json(path), path)


# --- domino families ---------------------------------------------------------

def family_from_dict(data: Any, file: str = "<inline>") -> LineFamily:
    _expect(data, dict, file, "$", "an object")
    spec = _expect(data.get("family"), dict, file, "family", "an object")
    length = _expect(spec.get("length"), int, file, "family.length", "an integer")
    ids = tuple(_string_list(spec.get("ids"), file, "family.ids"))
    if not ids:
        raise SchemaError(file, "family.ids", "must not be empty")
    for i, did in enumerate(ids):
        _label_part(did, file, f"family.ids[{i}]", "domino id")
    max_dominoes = _expect(
        spec.get("max_dominoes", len(ids)), int, file, "family.max_dominoes", "an integer"
    )
    tags = tuple(_string_list(spec.get("tags", ["0"]), file, "family.tags"))
    edges = _int_list(spec.get("barrier_edges", []), file, "family.barrier_edges")
    push_dirs = tuple(
        _string_list(spec.get("push_dirs", ["E", "W"]), file, "family.push_dirs")
    )
    family = _build(
        file, "family", LineFamily, length, ids, max_dominoes, tags, tuple(edges), push_dirs
    )

    layouts_data = _expect(
        spec.get("layouts", {}), dict, file, "family.layouts", "an object"
    )
    layouts = []
    for name, layout_data in layouts_data.items():
        path = f"family.layouts.{name}"
        _label_part(name, file, path, "layout name", False)
        _expect(layout_data, dict, file, path, "an object")
        shape = ("chain",) if "chain" in layout_data else ("present", "barriers", "push")
        extra = [key for key in layout_data if key not in shape]
        if extra:
            raise SchemaError(file, path, f"unexpected key {extra[0]!r} in a {shape[0]!r} layout")
        if "chain" in layout_data:  # the first ``chain`` ids at home
            count = _expect(layout_data["chain"], int, file, f"{path}.chain", "an integer")
            if not 0 <= count <= len(ids):
                raise SchemaError(file, f"{path}.chain", f"must be in 0..{len(ids)}")
            layout_data = {"present": dict.fromkeys(ids[:count], tags[0])}
        present = _string_map(layout_data.get("present"), file, f"{path}.present")
        barriers = _int_list(layout_data.get("barriers", []), file, f"{path}.barriers")
        push = layout_data.get("push")
        if push is not None:
            push = _string_list(push, file, f"{path}.push")
            if len(push) != 2:
                raise SchemaError(file, f"{path}.push", "expected [id, dir]")
        unknown = [i for i in present if i not in ids]
        if unknown:
            raise SchemaError(file, path, f"unknown domino id {unknown[0]!r}")
        if any(len(t) != 1 or t == "-" for t in present.values()):
            raise SchemaError(file, f"{path}.present", "a tag is one character other than '-'")
        bad = [e for e in barriers if e not in edges]
        if bad:
            raise SchemaError(file, f"{path}.barriers", f"edge {bad[0]} is not in barrier_edges")
        row = "".join(present.get(i, "-") for i in ids)
        bits = "".join("1" if e in barriers else "0" for e in edges)
        layouts.append((name, _States._join((row, bits, "".join(push or "-")))))

    actions = tuple(_string_list(spec.get("actions", []), file, "family.actions"))
    try:  # the family checks its layouts against its states, built once
        return replace(family, layouts=tuple(layouts), actions=actions)
    except MapTableError as exc:  # a layout outside the states, named by its key
        raise SchemaError(file, f"family.layouts.{exc.element}", str(exc)) from None
    except (ValueError, CausalGroundError) as exc:  # one over the limit fails at family
        raise SchemaError(file, "family", str(exc)) from None


def load_family(path: str) -> LineFamily:
    return family_from_dict(load_json(path), path)


# --- witness maps and mechanism records ---------------------------------------

def witness_from_dict(
    data: Any, domain: FiniteSet, codomain: FiniteSet, file: str = "<inline>"
) -> TotalMap:
    _expect(data, dict, file, "$", "an object")
    return _table(data.get("table"), domain, codomain, file, "table")


def witness_to_dict(witness: TotalMap) -> dict:
    return {
        "domain": list(witness.domain.elements),
        "codomain": list(witness.codomain.elements),
        "table": dict(witness.table),
    }


def serialize(value: Any, rename: Mapping[str, str] = {}) -> Any:
    """JSON data of a result: a TotalMap as its witness dict, a dataclass as
    ``{field: serialize(value)}`` with its field names passed through
    ``rename``, a tuple or list as a list, anything else as it is."""
    if isinstance(value, TotalMap):
        return witness_to_dict(value)
    if is_dataclass(value):
        return {
            rename.get(f.name, f.name): serialize(getattr(value, f.name))
            for f in fields(value)
        }
    if isinstance(value, (tuple, list)):
        return [serialize(item) for item in value]
    return value


def _words(
    data: Any, model: ActionModel, file: str, path: str, sep: str = ","
) -> tuple[str, ...]:
    """A list of words, each ``sep``-joined from the model's generator labels.
    A context lists one label per entry: its ``sep`` is empty."""
    words = tuple(_string_list(data, file, path))
    for j, word in enumerate(words):
        for part in word.split(sep) if sep else (word,):
            if part not in model.generators:
                reason = f"unknown generator label {part!r}"
                raise SchemaError(file, f"{path}[{j}]", reason)
    return words


def records_from_dict(
    data: Any, model: ActionModel, file: str = "<inline>"
) -> list[MechanismRecord]:
    """Records from a list of them, or from a discover report holding one at
    ``mechanisms``, each fault named at its path from the file's root.  Once
    all are well formed, a record that fails in its own context is rejected."""
    root = "mechanisms" if isinstance(data, dict) and "mechanisms" in data else ""
    entries = data[root] if root else data
    _expect(entries, list, file, root or "$", "a list of mechanism records")
    space = model.outcomes
    records = []
    for i, entry in enumerate(entries):
        at = f"{root}[{i}]"
        _expect(entry, dict, file, at, "an object")
        target = _string(entry.get("target"), file, f"{at}.target")
        parents = tuple(_string_list(entry.get("parents", []), file, f"{at}.parents"))
        declared = _build(file, at, space.normalize_vars, parents)
        domain = _build(file, at, space.subspace, parents).total
        codomain = _build(file, at, space.subspace, (target,)).total
        if parents != declared:  # the map's keys list the parents in this order
            reason = f"parents must be distinct and in declared order {list(declared)}"
            raise SchemaError(file, f"{at}.parents", reason)
        if target in parents:
            reason = f"parents must not include the target {target!r}"
            raise SchemaError(file, f"{at}.parents", reason)
        map_data = _expect(entry.get("map"), dict, file, f"{at}.map", "an object")
        witness = _table(map_data.get("table"), domain, codomain, file, f"{at}.map.table")
        context = _words(entry.get("context", []), model, file, f"{at}.context", "")
        invariant = _words(entry.get("invariant_under", []), model, file, f"{at}.invariant_under")
        violated = []
        pairs = _expect(entry.get("violated_by", []), list, file, f"{at}.violated_by", "a list")
        for j, pair in enumerate(pairs):
            pair = _string_list(pair, file, f"{at}.violated_by[{j}]")
            if len(pair) != 2:
                raise SchemaError(file, f"{at}.violated_by[{j}]", "expected [word, state]")
            if pair[1] not in model.states:
                reason = f"unknown state {pair[1]!r}"
                raise SchemaError(file, f"{at}.violated_by[{j}]", reason)
            violated.append((pair[0], pair[1]))
        _words([word for word, _ in violated], model, file, f"{at}.violated_by")
        records.append(
            MechanismRecord(target, parents, witness, context, invariant, tuple(violated))
        )
    for i, record in enumerate(records):
        _build(file, f"{root}[{i}]", _holds, model, record)
    return records
