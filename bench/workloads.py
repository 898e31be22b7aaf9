"""The benchmark's three workloads and the seeded inputs they run on.

Each workload writes its inputs from the seed, then exposes a timed
set-up step and a fixed round of queries.  All queries go through the
public API: ``causalground.cli.run`` for the CLI workloads, and
``causalground.checkers`` on a model held in memory for
``invariance-batch``.  Library functions are looked up on their module at
call time, so the trace hooks see every call.  Outputs are checked by
``oracle``, which never imports the library.

The seed changes table contents (which edge, actions, parents, functions
and query words), never the size class, so run time stays comparable
across seeds.
"""

from __future__ import annotations

import io
import json
import os
import random
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from functools import cached_property
from itertools import product
from typing import Any, Callable

import oracle

# Size classes.  "full" is what the benchmark measures; "tiny" keeps the
# same shapes small enough for the smoke tests.
SIZES = {
    "full": {
        "line": {"length": 6, "ids": 6, "max_dominoes": 4, "tags": 3, "layout": 4},
        "scm": (((), "zero"), (("V1",), "copy"), (("V1", "V2"), "and"),
                (("V2", "V3"), "or")),
        "chain": 5,
        "queries": 100,
    },
    "tiny": {
        "line": {"length": 3, "ids": 3, "max_dominoes": 2, "tags": 2, "layout": 2},
        "scm": (((), "zero"), (("V1",), "copy")),
        "chain": 3,
        "queries": 4,
    },
}


@dataclass
class CliOutcome:
    code: int
    out: str
    err: str


def cli_call(argv: list[str]) -> CliOutcome:
    """Run one CLI command in-process, capturing its report."""
    from causalground import cli

    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = cli.run(argv)
        except SystemExit as exc:  # argparse rejects bad flags this way
            code = exc.code if isinstance(exc.code, int) else 2
    return CliOutcome(code, out.getvalue(), err.getvalue())


def write_json(path: str, data: Any) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(data, fh, indent=2, sort_keys=True)
        fh.write("\n")


def cli_problems(outcome: dict, allowed=(0,)) -> list[str]:
    """An unexpected exit code is a failure; the error text says why."""
    if outcome["code"] not in allowed:
        return [f"exit code {outcome['code']}: {outcome['err'].strip()[:300]}"]
    return []


def chain_family(length, ids, max_dominoes, tags, barrier_edges, layout, actions):
    """A line family file object with a chain layout named after its size."""
    spec = {
        "length": length,
        "ids": [f"d{i}" for i in range(1, ids + 1)],
        "max_dominoes": max_dominoes,
        "tags": [str(t) for t in range(tags)],
        "barrier_edges": list(barrier_edges),
        "push_dirs": ["E", "W"],
        "layouts": {f"chain{layout}": {"chain": layout}},
    }
    if actions:
        spec["actions"] = list(actions)
    return {"family": spec}


def family_labels(spec: dict) -> list[str]:
    """Every action label of a family file, by the documented naming scheme."""
    labels = ["id"] + [f"init-{name}" for name in spec["layouts"]]
    for i in spec["ids"]:
        labels += [f"choose-push-{i}-{d}" for d in spec["push_dirs"]]
        labels += [f"remove-{i}", f"place-{i}"]
    for e in spec["barrier_edges"]:
        labels += [f"add-barrier-{e}-{e + 1}", f"remove-barrier-{e}-{e + 1}"]
    return labels


class Workload:
    """Inputs, a timed set-up, a fixed round of queries, and their checks."""

    name = ""

    def __init__(self, workdir: str, seed: int, size: str = "full"):
        self.dir = workdir
        self.rng = random.Random(f"{self.name}:{seed}")
        self.size = SIZES[size]
        os.makedirs(workdir, exist_ok=True)

    def path(self, *parts: str) -> str:
        return os.path.join(self.dir, *parts)

    def generate(self) -> None:
        """Write every input from the seed (untimed)."""

    def setup(self) -> Any:
        """Produce the models the queries read (timed)."""
        raise NotImplementedError

    def after_setup(self) -> None:
        """Derive inputs from set-up outputs (untimed)."""

    def queries(self) -> list[tuple[str, Callable[[], Any]]]:
        """One round: (key, call) pairs; equal keys must give equal outputs."""
        raise NotImplementedError

    def plain(self, key: str, raw: Any) -> Any:
        """JSON-ready form of a query's raw result (untimed)."""
        return raw.__dict__ if isinstance(raw, CliOutcome) else raw

    def check_setup(self, outcome: dict) -> list[str]:
        """Problems with one set-up's CLI outcome (as a dict)."""
        raise NotImplementedError

    def check(self, key: str, outcome: Any) -> list[str]:
        """Problems with one query's plain output."""
        raise NotImplementedError

    def artifacts(self) -> list[str]:
        """Files the program writes: models, morphisms and records."""
        raise NotImplementedError


class Line6Naturality(Workload):
    """build-model on a line6-sized family, then two check-naturality runs.

    Why: dominoes enumeration, map validation in core and JSON io do
    almost all the work; checkers does none; largest working set.
    """

    name = "line6-naturality"

    def generate(self):
        shape = self.size["line"]
        ids = [f"d{i}" for i in range(1, shape["ids"] + 1)]
        edge = self.rng.randint(1, shape["length"] - 1)
        pushes = self.rng.sample([(i, d) for i in ids for d in "EW"], 2)
        actions = ["id", f"init-chain{shape['layout']}"]
        actions += [f"choose-push-{i}-{d}" for i, d in pushes]
        actions += [f"remove-{self.rng.choice(ids)}", f"place-{self.rng.choice(ids)}"]
        actions += [f"add-barrier-{edge}-{edge + 1}", f"remove-barrier-{edge}-{edge + 1}"]
        self.family = chain_family(
            shape["length"], shape["ids"], shape["max_dominoes"], shape["tags"],
            [edge], shape["layout"], actions,
        )
        write_json(self.path("family.json"), self.family)

    def setup(self):
        return cli_call(["build-model", "--family", self.path("family.json"),
                         "--out", self.path("model"), "--format", "json"])

    def after_setup(self):
        """Barrier-blind morphism: forget barrier bits in every state image."""
        data = oracle.load_json(self.path("model", "morphism.json"))
        blind = {}
        for micro, abstract in data["state_map"].items():
            presence, bits, push = abstract.split("/")
            blind[micro] = f"{presence}/b{'0' * (len(bits) - 1)}/{push}"
        data["state_map"] = blind
        write_json(self.path("model", "morphism_blind.json"), data)

    def queries(self):
        return [
            (name, lambda name=name: cli_call(
                ["check-naturality", "--morphism", self.path("model", f"{name}.json"),
                 "--format", "json"]))
            for name in ("morphism", "morphism_blind")
        ]

    def check_setup(self, outcome):
        return cli_problems(outcome) or oracle.build_report_problems(
            json.loads(outcome["out"]), self.family["family"],
            self.path("model", "micro_model.json"),
        )

    def check(self, key, outcome):
        problems = cli_problems(outcome, (0, 1))
        if problems:
            return problems
        return self.naturality.report_problems(
            self.path("model", f"{key}.json"), outcome["code"],
            json.loads(outcome["out"]), expect_natural=(key == "morphism"),
        )

    @cached_property
    def naturality(self):
        return oracle.Naturality()

    def artifacts(self):
        return [self.path("model", f) for f in
                ("micro_model.json", "abstract_model.json", "morphism.json")]


GATES = {
    "zero": lambda pa: 0,
    "copy": lambda pa: pa[0],
    "and": lambda pa: pa[0] & pa[1],
    "or": lambda pa: pa[0] | pa[1],
}


def seeded_scm(rng: random.Random, structure) -> dict:
    """Binary SCM file: V_k = gate_k(parents) xor U_k xor c_k, binary noise.

    Parents and gates are fixed by the size class and the seed draws the
    constants c_k.  Flipping c_k only relabels the values of U_k, so every
    seed yields an isomorphic model: verdict contents change with the
    seed, while the search work, which depends on the mechanism
    structure alone, does not.
    """
    endogenous = []
    for k, (parents, gate) in enumerate(structure, start=1):
        c = rng.randint(0, 1)
        table = {
            "|".join(key + (u,)): str(GATES[gate](tuple(map(int, key))) ^ int(u) ^ c)
            for key in product("01", repeat=len(parents)) for u in "01"
        }
        endogenous.append({"id": f"V{k}", "values": ["0", "1"],
                           "parents": list(parents), "function_table": table})
    exogenous = [{"id": f"U{k}", "values": ["0", "1"]}
                 for k in range(1, len(structure) + 1)]
    return {"exogenous": exogenous, "endogenous": endogenous}


class ScmMechanisms(Workload):
    """encode-scm, then discover and one check-surgical per set-Vk=1.

    Why: with noise the init context does not collapse, so discovery
    scans many candidate parent sets; the only workload where the
    functional-dependency search and the scm law suite carry weight.
    """

    name = "scm-mechanisms"
    context = ("init",)

    def generate(self):
        self.scm = seeded_scm(self.rng, self.size["scm"])
        write_json(self.path("scm.json"), self.scm)

    def setup(self):
        return cli_call(["encode-scm", "--scm", self.path("scm.json"),
                         "--out", self.path("model.json"), "--format", "json"])

    def queries(self):
        model, records = self.path("model.json"), self.path("records.json")
        calls = [("discover", lambda: cli_call(
            ["discover", "--model", model, "--context", ",".join(self.context),
             "--max-parents", "2", "--format", "json", "--out", records]))]
        for v in self.scm["endogenous"]:
            word = f"set-{v['id']}=1"
            calls.append((word, lambda word=word: cli_call(
                ["check-surgical", "--model", model, "--word", word,
                 "--mechanisms", records, "--context", ",".join(self.context),
                 "--format", "json"])))
        return calls

    def plain(self, key, raw):
        out = dict(raw.__dict__)
        if key == "discover" and raw.code == 0:
            with open(self.path("records.json"), "r", encoding="utf-8") as fh:
                out["records"] = fh.read()
        return out

    @cached_property
    def tables(self):
        return oracle.Tables(oracle.load_json(self.path("model.json")))

    def check_setup(self, outcome):
        return cli_problems(outcome, (0, 1)) or oracle.law_report_problems(
            outcome["code"], json.loads(outcome["out"]), self.scm
        )

    def check(self, key, outcome):
        if key == "discover":
            problems = cli_problems(outcome)
            if problems:
                return problems
            records = json.loads(outcome["records"])["mechanisms"]
            for record in records:
                problems += oracle.record_problems(self.tables, record, self.context)
            return problems
        problems = cli_problems(outcome, (0, 1))
        if problems:
            return problems
        records = oracle.load_json(self.path("records.json"))["mechanisms"]
        return oracle.surgical_problems(
            self.tables, records, key, self.context, outcome["code"],
            json.loads(outcome["out"]),
        )

    def artifacts(self):
        return [self.path("model.json"), self.path("records.json")]


class InvarianceBatch(Workload):
    """In-memory five-chain model; determination then invariance queries.

    Why: every query shares one base context and io is absent from the
    timed part, so projection, composition and the determination scan in
    core and checkers dominate; shows whether word reuse pays.
    """

    name = "invariance-batch"

    def generate(self):
        n = self.size["chain"]
        self.family = chain_family(n, n, n, 1, range(1, n), n, ())
        write_json(self.path("family.json"), self.family)
        spec = self.family["family"]
        labels = family_labels(spec)
        ids = spec["ids"]
        push = self.rng.choice([f"choose-push-{i}-{d}" for i in ids for d in "EW"])
        self.base = (push, f"init-chain{n}")
        self.plan = []
        for q in range(self.size["queries"]):
            vars_i = sorted(self.rng.sample(ids, 1 + q % 2))
            vars_j = [self.rng.choice([i for i in ids if i not in vars_i])]
            later = tuple(self.rng.choice(labels) for _ in range(1 + (q // 2) % 2))
            self.plan.append((tuple(vars_i), tuple(vars_j), later))

    def setup(self):
        from causalground import io as cgio

        outcome = cli_call(["build-model", "--family", self.path("family.json"),
                            "--out", self.path("model"), "--format", "json"])
        self.model = cgio.load_model(self.path("model", "abstract_model.json"))
        return outcome

    def queries(self):
        from causalground import checkers

        def query(vars_i, vars_j, later):
            det = checkers.check_determination(self.model, self.base, vars_i, vars_j)
            inv = None
            if det.holds:
                inv = checkers.check_invariance(
                    self.model, self.base, det.witness, vars_i, vars_j, later
                )
            return det, inv

        return [
            (str(q), lambda plan=plan: query(*plan))
            for q, plan in enumerate(self.plan)
        ]

    def plain(self, key, raw):
        det, inv = raw
        return {
            "determination": {
                "holds": det.holds,
                "unique": det.unique,
                "witness": None if det.witness is None else dict(det.witness.table),
                "counterexample": det.counterexample and list(det.counterexample),
            },
            "invariance": inv and {
                "holds": inv.holds,
                "violating_state": inv.violating_state,
                "expected": inv.expected,
                "actual": inv.actual,
            },
        }

    def check_setup(self, outcome):
        return cli_problems(outcome) or oracle.build_report_problems(
            json.loads(outcome["out"]), self.family["family"],
            self.path("model", "micro_model.json"),
        )

    @cached_property
    def tables(self):
        return oracle.Tables(oracle.load_json(self.path("model", "abstract_model.json")))

    def check(self, key, outcome):
        vars_i, vars_j, later = self.plan[int(key)]
        det = outcome["determination"]
        problems = oracle.determination_problems(
            self.tables, self.base, vars_i, vars_j, det
        )
        inv = outcome["invariance"]
        if det["holds"] != (inv is not None):
            problems.append("invariance run without a holding determination")
        elif inv is not None:
            problems += oracle.invariance_problems(
                self.tables, self.base, later, vars_i, vars_j, det["witness"], inv
            )
        return problems

    def artifacts(self):
        return [self.path("model", f) for f in
                ("micro_model.json", "abstract_model.json", "morphism.json")]


WORKLOADS = {w.name: w for w in (Line6Naturality, ScmMechanisms, InvarianceBatch)}
