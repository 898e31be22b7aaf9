"""Independent re-check of every verdict the benchmark collects.

Nothing here imports causalground.  The oracle reads the JSON files the
program wrote (models, morphisms, mechanism records, reports) and
re-derives each claim by plain table lookups: words are applied to every
state, outcomes are projected by position, and each witness,
counterexample and naturality square is checked on its own.  Each check
returns a list of problems; an empty list means the output is correct.

File-format conventions used (they are the program's documented JSON
formats, not library internals): a word is applied rightmost label
first; the generator ``id`` is the identity and is not stored; a tuple
of variable values is written ``|``-joined in declared variable order,
and the empty tuple is ``*``.
"""

from __future__ import annotations

import json
import os
from itertools import combinations
from math import comb

SEP = "|"
UNIT = "*"


def load_json(path):
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


class Tables:
    """An action model read from its JSON file, with word application."""

    def __init__(self, data: dict):
        self.states = data["states"]
        self.var_ids = [v["id"] for v in data["variables"]]
        self.domains = {v["id"]: v["values"] for v in data["variables"]}
        self.process = data["process"]
        self.generators = data["generators"]
        self._after: dict[tuple, dict] = {}

    @property
    def labels(self) -> list[str]:
        return sorted(set(self.generators) | {"id"})

    def after(self, word) -> dict:
        """State reached from each state by a word (rightmost label first)."""
        word = tuple(word)
        if word not in self._after:
            if not word:
                result = {x: x for x in self.states}
            else:
                first = self.after(word[1:])
                label = word[0]
                if label == "id":
                    result = first
                else:
                    table = self.generators[label]
                    result = {x: table[y] for x, y in first.items()}
            self._after[word] = result
        return self._after[word]

    def ordered(self, variables) -> list[str]:
        wanted = set(variables)
        return [v for v in self.var_ids if v in wanted]

    def projector(self, variables):
        positions = [self.var_ids.index(v) for v in self.ordered(variables)]
        if not positions:
            return lambda values: UNIT
        return lambda values: SEP.join(values[p] for p in positions)

    def outcome(self, word, variables) -> dict:
        """Projected outcome label of every state after a word."""
        reached = self.after(word)
        project = self.projector(variables)
        return {x: project(self.process[y]) for x, y in reached.items()}

    def value_count(self, variables) -> int:
        count = 1
        for v in variables:
            count *= len(self.domains[v])
        return count


def witness_problems(tables: Tables, word, parents, target_vars, table) -> list[str]:
    """The witness must reproduce the target outcome on every state."""
    oi = tables.outcome(word, parents)
    oj = tables.outcome(word, target_vars)
    for x in tables.states:
        if table.get(oi[x]) != oj[x]:
            return [f"witness fails at state {x!r} under {list(word)}"]
    return []


def first_violation(tables: Tables, word, parents, target_vars, table):
    oi = tables.outcome(word, parents)
    oj = tables.outcome(word, target_vars)
    for x in tables.states:
        if table[oi[x]] != oj[x]:
            return x
    return None


def violates_at(tables: Tables, word, parents, target_vars, table, state) -> bool:
    oi = tables.outcome(word, parents)
    oj = tables.outcome(word, target_vars)
    return table[oi[state]] != oj[state]


def describe(record: dict) -> str:
    return f"{record['target']}~({','.join(record['parents']) or 'none'})"


# --- line families and naturality -------------------------------------------

def family_state_count(spec: dict, forget_tags: bool = False) -> int:
    """Closed-form state count of a line family file's ``family`` object."""
    n = len(spec["ids"])
    tags = 1 if forget_tags else len(spec.get("tags", ["0"]))
    presence = sum(comb(n, k) * tags**k for k in range(spec["max_dominoes"] + 1))
    pushes = 1 + n * len(spec.get("push_dirs", ["E", "W"]))
    return presence * pushes * 2 ** len(spec.get("barrier_edges", []))


def build_report_problems(report: dict, spec: dict, micro_path: str) -> list[str]:
    problems = []
    micro = family_state_count(spec)
    abstract = family_state_count(spec, forget_tags=True)
    if report.get("micro_states") != micro:
        problems.append(f"micro_states {report.get('micro_states')} != {micro}")
    if report.get("abstract_states") != abstract:
        problems.append(
            f"abstract_states {report.get('abstract_states')} != {abstract}"
        )
    written = len(load_json(micro_path)["states"])
    if written != micro:
        problems.append(f"micro model file holds {written} states, not {micro}")
    return problems


class Naturality:
    """Square-by-square re-scan of a morphism file."""

    def __init__(self):
        self._models: dict[str, Tables] = {}

    def model(self, path: str) -> Tables:
        path = os.path.abspath(path)
        if path not in self._models:
            self._models[path] = Tables(load_json(path))
        return self._models[path]

    def failures(self, morphism_path: str):
        data = load_json(morphism_path)
        base = os.path.dirname(os.path.abspath(morphism_path))
        src = self.model(os.path.join(base, data["source_model"]))
        tgt = self.model(os.path.join(base, data["target_model"]))
        x = data["state_map"]
        y = {k: SEP.join(v) for k, v in data["outcome_map"].items()}
        alphabet = data.get("alphabet_map") or {a: a for a in src.labels}
        found = set()
        for a in src.labels:
            b = alphabet[a]
            f_src = src.after((a,))
            f_tgt = tgt.after((b,))
            for s in src.states:
                via_source = x[f_src[s]]
                via_target = f_tgt[x[s]]
                if via_source != via_target:
                    found.add(("action", a, s, via_source, via_target))
        for s in src.states:
            via_source = y[SEP.join(src.process[s])]
            via_target = SEP.join(tgt.process[x[s]])
            if via_source != via_target:
                found.add(("process", None, s, via_source, via_target))
        realized = {y[SEP.join(v)] for v in src.process.values()}
        total = tgt.value_count(tgt.var_ids)
        return found, len(realized), total - len(realized)

    def report_problems(
        self, morphism_path: str, code: int, report: dict, expect_natural: bool
    ) -> list[str]:
        found, possible, impossible = self.failures(morphism_path)
        nat = report["naturality"]
        problems = []
        if nat["natural"] != (not found):
            problems.append(f"natural={nat['natural']} but {len(found)} squares fail")
        if nat["natural"] != expect_natural:
            problems.append(f"expected natural={expect_natural}")
        if code != (0 if expect_natural else 1):
            problems.append(f"unexpected exit code {code}")
        if nat["failure_count"] != len(found):
            problems.append(
                f"failure_count {nat['failure_count']} != re-scanned {len(found)}"
            )
        listed = nat["failures"]
        for f in listed:
            key = (f["square"], f["generator"], f["state"], f["via_source"],
                   f["via_target"])
            if key not in found:
                problems.append(f"reported square {key} does not fail")
        if nat["truncated"] != (len(found) > len(listed)):
            problems.append("truncated flag disagrees with the failure count")
        if not expect_natural and not any(
            f["square"] == "action" and f["generator"] for f in listed
        ):
            problems.append("no action-square counterexample reported")
        surj = report["surjectivity"]
        if (surj["possible_count"], surj["impossible_count"]) != (possible, impossible):
            problems.append(
                f"possible/impossible {surj['possible_count']}/"
                f"{surj['impossible_count']} != {possible}/{impossible}"
            )
        return problems


# --- SCM law report and mechanism records -----------------------------------

def expected_law_counts(domain_sizes: list[int]) -> dict[str, int]:
    """Per-law check counts of the five-law suite for the given domains."""
    n = len(domain_sizes)
    commute = sum(
        domain_sizes[i] * domain_sizes[j] for i in range(n) for j in range(i + 1, n)
    )
    base = sum(1 + d for d in domain_sizes)
    laters = [
        1 + sum(domain_sizes[j] for j in range(n) if j != i) for i in range(n)
    ]
    return {
        "commute": commute,
        "overwrite": sum(d * d for d in domain_sizes),
        "u-invariant": 2 + sum(domain_sizes),
        "determination": base,
        "determination-invariance": sum(
            (1 + domain_sizes[i]) * laters[i] for i in range(n)
        ),
    }


def law_report_problems(code: int, report: dict, scm: dict) -> list[str]:
    sizes = [len(v["values"]) for v in scm["endogenous"]]
    noise = [len(u["values"]) for u in scm["exogenous"]]
    problems = []
    if code != 0:
        problems.append(f"unexpected exit code {code}")
    laws = report["laws"]
    if laws["ok"] is not True or laws["violations"]:
        problems.append(f"law suite not ok: {laws['violations'][:3]}")
    expected = expected_law_counts(sizes)
    if laws["checked"] != expected:
        problems.append(f"law counts {laws['checked']} != {expected}")
    states = 1
    for d, u in zip(sizes, noise):
        states *= (d + 1) * u
    if report["states"] != states:
        problems.append(f"states {report['states']} != {states}")
    if report["generators"] != 2 + sum(sizes):
        problems.append(f"generators {report['generators']} != {2 + sum(sizes)}")
    return problems


def record_problems(tables: Tables, record: dict, context) -> list[str]:
    """A mechanism record's witness, uniqueness and probe lists all hold."""
    name = describe(record)
    context = tuple(context)
    if tuple(record["context"]) != context:
        return [f"{name}: context {record['context']} != {list(context)}"]
    parents = record["parents"]
    target = [record["target"]]
    table = record["map"]["table"]
    problems = witness_problems(tables, context, parents, target, table)
    if problems:
        return [f"{name}: {p}" for p in problems]
    reached = set(tables.outcome(context, parents).values())
    if len(reached) != tables.value_count(parents):
        problems.append(f"{name}: witness is not unique")
    probes = set(record["invariant_under"])
    for word in record["invariant_under"]:
        if first_violation(
            tables, tuple(word.split(",")) + context, parents, target, table
        ) is not None:
            problems.append(f"{name}: not invariant under {word}")
    for word, state in record["violated_by"]:
        probes.add(word)
        if not violates_at(
            tables, tuple(word.split(",")) + context, parents, target, table, state
        ):
            problems.append(f"{name}: {word} does not violate at {state!r}")
    if probes != set(tables.labels):
        problems.append(f"{name}: probes {sorted(probes)} != every generator")
    return problems


def has_unique_determination(tables: Tables, target: str, word) -> bool:
    """Brute force: does any set of other variables uniquely determine target?"""
    others = [v for v in tables.var_ids if v != target]
    oj = tables.outcome(word, [target])
    for size in range(len(others) + 1):
        for parents in combinations(others, size):
            oi = tables.outcome(word, parents)
            bound = {}
            if all(bound.setdefault(oi[x], oj[x]) == oj[x] for x in tables.states):
                if len(bound) == tables.value_count(parents):
                    return True
    return False


def surgical_problems(
    tables: Tables, records: list, action: str, context, code: int, report: dict
) -> list[str]:
    new_word = (action,) + tuple(context)
    broken, survived = [], []
    for record in records:
        hit = first_violation(
            tables, new_word, record["parents"], [record["target"]],
            record["map"]["table"],
        )
        (broken if hit is not None else survived).append(record)
    problems = []
    if report["broken"] != [describe(r) for r in broken]:
        problems.append(f"broken {report['broken']} != {[describe(r) for r in broken]}")
    if report["survived"] != [describe(r) for r in survived]:
        problems.append(f"survived {report['survived']} disagrees")
    target = broken[0]["target"] if len(broken) == 1 else None
    if report["target"] != target:
        problems.append(f"target {report['target']!r} != {target!r}")
    new = report["new_mechanism"]
    if target is not None:
        if new is None:
            if has_unique_determination(tables, target, new_word):
                problems.append(f"a unique determination of {target} exists")
        else:
            if new["target"] != target:
                problems.append(f"new mechanism targets {new['target']!r}")
            problems.extend(record_problems(tables, new, new_word))
    elif new is not None:
        problems.append("new mechanism reported without a single broken record")
    lost = set()
    for record in survived:
        for probe in record["invariant_under"]:
            if first_violation(
                tables, tuple(probe.split(",")) + new_word, record["parents"],
                [record["target"]], record["map"]["table"],
            ) is not None:
                lost.add((describe(record), probe))
    reported = {(name, probe) for name, probe, _ in report["lost_invariances"]}
    if reported != lost:
        problems.append(f"lost invariances {sorted(reported)} != {sorted(lost)}")
    by_name = {describe(r): r for r in survived}
    for name, probe, state in report["lost_invariances"]:
        record = by_name.get(name)
        if record is None or not violates_at(
            tables, tuple(probe.split(",")) + new_word, record["parents"],
            [record["target"]], record["map"]["table"], state,
        ):
            problems.append(f"{name} under {probe} does not fail at {state!r}")
    surgical = len(broken) == 1 and new is not None and not lost
    if report["surgical"] != surgical:
        problems.append(f"surgical={report['surgical']}, expected {surgical}")
    if code != (0 if report["surgical"] else 1):
        problems.append(f"exit code {code} disagrees with the verdict")
    return problems


# --- determination and invariance queries -----------------------------------

def determination_problems(tables: Tables, word, vars_i, vars_j, result) -> list[str]:
    if result["holds"]:
        table = result["witness"]
        problems = witness_problems(tables, word, vars_i, vars_j, table)
        reached = set(tables.outcome(word, vars_i).values())
        unique = len(reached) == tables.value_count(vars_i)
        if result["unique"] != unique:
            problems.append(f"unique={result['unique']}, expected {unique}")
        return problems
    a, b = result["counterexample"]
    oi = tables.outcome(word, vars_i)
    oj = tables.outcome(word, vars_j)
    if oi[a] != oi[b] or oj[a] == oj[b]:
        return [f"counterexample {a!r}, {b!r} does not separate J under equal I"]
    return []


def invariance_problems(
    tables: Tables, base, later, vars_i, vars_j, witness, result
) -> list[str]:
    word = tuple(later) + tuple(base)
    if result["holds"]:
        return witness_problems(tables, word, vars_i, vars_j, witness)
    x = result["violating_state"]
    expected = witness[tables.outcome(word, vars_i)[x]]
    actual = tables.outcome(word, vars_j)[x]
    if (result["expected"], result["actual"]) != (expected, actual):
        return [f"violation at {x!r} reports {result['expected']!r}/"
                f"{result['actual']!r}, oracle {expected!r}/{actual!r}"]
    if expected == actual:
        return [f"state {x!r} does not violate the witness"]
    return []
