"""Per-layer tracing from outside the library, by wrapping public functions.

Coarse public calls get spans (name, start, end, parent span, request);
per-element kernels (``FactoredSpace.project_element`` and ``TotalMap``
construction) get counters only.  Spans stay in memory until the run
ends.  Every binding of a wrapped function is patched, since
``from ... import`` copies the function into other modules.  A hook
whose target no longer exists is reported as not measured.  This module
is imported only by traced runs.
"""

from __future__ import annotations

import json
import os
import sys
import weakref
from collections import Counter
from time import perf_counter

# (module, attribute, span name).  Attributes with a dot are methods.
SPANS = [
    ("causalground.cli", "run", "cli.run"),
    ("causalground.io", "load_json", "io.load_json"),
    ("causalground.io", "load_model", "io.load_model"),
    ("causalground.io", "load_morphism", "io.load_morphism"),
    ("causalground.io", "load_family", "io.load_family"),
    ("causalground.io", "load_scm", "io.load_scm"),
    ("causalground.io", "dump_json", "io.dump_json"),
    ("causalground.dominoes", "build_bounded_model", "dominoes.build"),
    ("causalground.dominoes", "LineFamily.enumerate_states", "dominoes.enumerate"),
    ("causalground.scm", "encode_scm", "scm.encode"),
    ("causalground.scm", "verify_scm_laws", "scm.laws"),
    ("causalground.checkers", "check_determination", "checkers.determination"),
    ("causalground.checkers", "check_invariance", "checkers.invariance"),
    ("causalground.checkers", "check_surgical", "checkers.surgical"),
    ("causalground.checkers", "discover_mechanisms", "checkers.discover"),
    ("causalground.checkers", "probe_record", "checkers.probe"),
    ("causalground.abstraction", "check_naturality", "abstraction.naturality"),
    ("causalground.abstraction", "check_surjectivity_assumptions",
     "abstraction.surjectivity"),
    ("causalground.core", "compose", "core.compose"),
    ("causalground.core", "outcome_map", "core.outcome_map"),
]

# (module, attribute, counter hook name).
COUNTERS = [
    ("causalground.core", "FactoredSpace.project_element", "core.project"),
    ("causalground.core", "TotalMap.__post_init__", "core.map_build"),
    ("causalground.dominoes", "micro_proc", "dominoes.micro_proc"),
]

# Per-layer metric -> (unit, hook it needs, or None when always available).
METRICS = {
    "io.load_s": ("s", "io.load_json"),
    "io.dump_s": ("s", "io.dump_json"),
    "io.bytes_read": ("bytes", "io.load_json"),
    "io.bytes_written": ("bytes", "io.dump_json"),
    "io.models_loaded": ("count", "io.load_model"),
    "dominoes.build_s": ("s", "dominoes.build"),
    "dominoes.enumerate_s": ("s", "dominoes.enumerate"),
    "dominoes.states": ("count", "dominoes.enumerate"),
    "dominoes.micro_proc_calls": ("count", "dominoes.micro_proc"),
    "core.map_builds": ("count", "core.map_build"),
    "core.map_builds_internal": ("count", "core.map_build"),
    "core.map_entries_validated": ("count", "core.map_build"),
    "core.map_validate_s": ("s", "core.map_build"),
    "core.project_calls": ("count", "core.project"),
    "core.outcome_map_calls": ("count", "core.outcome_map"),
    "core.outcome_map_s": ("s", "core.outcome_map"),
    "core.outcome_map_distinct": ("count", "core.outcome_map"),
    "core.compose_calls": ("count", "core.compose"),
    "core.compose_distinct": ("count", "core.compose"),
    "core.compose_s": ("s", "core.compose"),
    "checkers.discover_s": ("s", "checkers.discover"),
    "checkers.surgical_s": ("s", "checkers.surgical"),
    "checkers.probe_s": ("s", "checkers.probe"),
    "checkers.probe_calls": ("count", "checkers.probe"),
    "checkers.determination_s": ("s", "checkers.determination"),
    "checkers.invariance_s": ("s", "checkers.invariance"),
    "checkers.queries_pass": ("count", "checkers.determination"),
    "checkers.queries_fail": ("count", "checkers.determination"),
    "scm.encode_s": ("s", "scm.encode"),
    "scm.laws_s": ("s", "scm.laws"),
    "scm.states": ("count", "scm.encode"),
    "abstraction.naturality_s": ("s", "abstraction.naturality"),
    "abstraction.surjectivity_s": ("s", "abstraction.surjectivity"),
    "abstraction.squares": ("count", "abstraction.naturality"),
    "cli.calls": ("count", "cli.run"),
    "cli.self_s": ("s", "cli.run"),
    "trace.overhead_ratio": ("ratio", None),
    "trace.unattributed_s": ("s", None),
}

IO_LOADS = {"io.load_json", "io.load_model", "io.load_morphism",
            "io.load_family", "io.load_scm"}

# Results that carry a verdict, by span name and attribute.
VERDICTS = {
    "checkers.determination": "holds",
    "checkers.invariance": "holds",
    "checkers.surgical": "surgical",
}


class Tracer:
    """Installs the hooks, records spans and counters, computes metrics."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent, request]
        self.stack: list[int] = []
        self.counts: Counter = Counter()
        self.seconds: Counter = Counter()
        self.distinct: dict[str, set] = {"core.compose": set(), "core.outcome_map": set()}
        self.installed: set[str] = set()
        self.missing: list[str] = []
        self._patches: list[tuple[object, str, object]] = []
        self._models: dict[int, tuple] = {}
        self._io_depth = 0
        self._requests = 0

    # --- installing ---------------------------------------------------------

    def install(self) -> None:
        for module, attr, name in SPANS:
            self._hook(module, attr, name, self._span_wrapper)
        for module, attr, name in COUNTERS:
            self._hook(module, attr, name, self._counter_wrapper)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def _hook(self, module_name, attr, name, make_wrapper) -> None:
        module = sys.modules.get(module_name)
        owner, _, method = attr.rpartition(".")
        target_owner = getattr(module, owner, None) if owner else module
        original = None
        if target_owner is not None:
            original = (target_owner.__dict__.get(method) if owner
                        else getattr(target_owner, method, None))
        if not callable(original):
            self.missing.append(f"{module_name}.{attr}")
            return
        wrapper = make_wrapper(name, original)
        if owner:
            self._patch(target_owner, method, wrapper)
        else:
            # Patch every module binding of the function, not just its home.
            for mod_name, mod in list(sys.modules.items()):
                if mod_name == "causalground" or mod_name.startswith("causalground."):
                    for key, value in list(vars(mod).items()):
                        if value is original:
                            self._patch(mod, key, wrapper)
        self.installed.add(name)

    def _patch(self, owner, attr, value) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    # --- wrappers -----------------------------------------------------------

    def _span_wrapper(self, name, fn):
        spans, stack = self.spans, self.stack
        is_io = name.startswith("io.")

        def wrapper(*args, **kwargs):
            index = len(spans)
            parent = stack[-1] if stack else None
            if parent is None:
                self._requests += 1
            request = self._requests if parent is None else spans[parent][4]
            spans.append([name, perf_counter(), None, parent, request])
            stack.append(index)
            self._io_depth += is_io
            try:
                result = fn(*args, **kwargs)
            finally:
                self._io_depth -= is_io
                stack.pop()
                spans[index][2] = perf_counter()
            self._observe(name, args, kwargs, result)
            return result

        return wrapper

    def _counter_wrapper(self, name, fn):
        counts = self.counts
        if name == "core.map_build":
            seconds = self.seconds

            def build(table_map):
                started = perf_counter()
                fn(table_map)
                seconds[name] += perf_counter() - started
                counts["core.map_builds"] += 1
                counts["core.map_entries_validated"] += len(table_map.table)
                if not self._io_depth:
                    counts["core.map_builds_internal"] += 1

            return build

        def counted(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return counted

    def _model_key(self, model) -> int:
        """Serial number of a model object, robust to id() reuse."""
        entry = self._models.get(id(model))
        if entry is None or entry[0]() is not model:
            entry = (weakref.ref(model), len(self._models))
            self._models[id(model)] = entry
        return entry[1]

    def _observe(self, name, args, kwargs, result) -> None:
        counts = self.counts
        if name == "io.load_json":
            counts["io.bytes_read"] += _size(args[0] if args else kwargs["path"])
        elif name == "io.dump_json":
            counts["io.bytes_written"] += _size(args[1] if len(args) > 1 else kwargs["path"])
        elif name == "dominoes.enumerate":
            counts["dominoes.states"] += len(result)
        elif name == "scm.encode":
            counts["scm.states"] += len(result.states)
        elif name == "abstraction.naturality":
            source = (args[0] if args else kwargs["m"]).source
            counts["abstraction.squares"] += len(source.states) * (len(source.generators) + 1)
        elif name in ("core.compose", "core.outcome_map"):
            model = args[0] if args else kwargs["model"]
            word = args[1] if len(args) > 1 else kwargs.get("word", ())
            variables = args[2] if len(args) > 2 else kwargs.get("variables")
            key = (self._model_key(model), tuple(word),
                   None if variables is None else frozenset(variables))
            self.distinct[name].add(key if name == "core.outcome_map" else key[:2])
        if name in VERDICTS:
            passed = getattr(result, VERDICTS[name])
            counts["checkers.queries_pass" if passed else "checkers.queries_fail"] += 1

    # --- metrics ------------------------------------------------------------

    def _durations(self, names) -> float:
        return sum(s[2] - s[1] for s in self.spans if s[0] in names)

    def metrics(self, traced_wall_s: float, overhead_ratio: float) -> dict:
        spans = self.spans
        child_time = [0.0] * len(spans)
        for s in spans:
            if s[3] is not None:
                child_time[s[3]] += s[2] - s[1]
        count = Counter(s[0] for s in spans)

        def outermost_io_load(s) -> bool:
            parent = s[3]
            while parent is not None:
                if spans[parent][0].startswith("io."):
                    return False
                parent = spans[parent][3]
            return s[0] in IO_LOADS

        values = {
            "io.load_s": sum(s[2] - s[1] for s in spans if outermost_io_load(s)),
            "io.dump_s": self._durations({"io.dump_json"}),
            "io.bytes_read": self.counts["io.bytes_read"],
            "io.bytes_written": self.counts["io.bytes_written"],
            "io.models_loaded": count["io.load_model"],
            "dominoes.build_s": self._durations({"dominoes.build"}),
            "dominoes.enumerate_s": self._durations({"dominoes.enumerate"}),
            "dominoes.states": self.counts["dominoes.states"],
            "dominoes.micro_proc_calls": self.counts["dominoes.micro_proc"],
            "core.map_builds": self.counts["core.map_builds"],
            "core.map_builds_internal": self.counts["core.map_builds_internal"],
            "core.map_entries_validated": self.counts["core.map_entries_validated"],
            "core.map_validate_s": self.seconds["core.map_build"],
            "core.project_calls": self.counts["core.project"],
            "core.outcome_map_calls": count["core.outcome_map"],
            "core.outcome_map_s": self._durations({"core.outcome_map"}),
            "core.outcome_map_distinct": len(self.distinct["core.outcome_map"]),
            "core.compose_calls": count["core.compose"],
            "core.compose_distinct": len(self.distinct["core.compose"]),
            "core.compose_s": self._durations({"core.compose"}),
            "checkers.discover_s": self._durations({"checkers.discover"}),
            "checkers.surgical_s": self._durations({"checkers.surgical"}),
            "checkers.probe_s": self._durations({"checkers.probe"}),
            "checkers.probe_calls": count["checkers.probe"],
            "checkers.determination_s": self._durations({"checkers.determination"}),
            "checkers.invariance_s": self._durations({"checkers.invariance"}),
            "checkers.queries_pass": self.counts["checkers.queries_pass"],
            "checkers.queries_fail": self.counts["checkers.queries_fail"],
            "scm.encode_s": self._durations({"scm.encode"}),
            "scm.laws_s": self._durations({"scm.laws"}),
            "scm.states": self.counts["scm.states"],
            "abstraction.naturality_s": self._durations({"abstraction.naturality"}),
            "abstraction.surjectivity_s": self._durations({"abstraction.surjectivity"}),
            "abstraction.squares": self.counts["abstraction.squares"],
            "cli.calls": count["cli.run"],
            "cli.self_s": sum(
                s[2] - s[1] - child_time[i]
                for i, s in enumerate(spans) if s[0] == "cli.run"
            ),
            "trace.overhead_ratio": overhead_ratio,
            "trace.unattributed_s": traced_wall_s - sum(
                s[2] - s[1] for s in spans if s[3] is None
            ),
        }
        return {
            name: {"value": values[name], "unit": unit}
            for name, (unit, hook) in METRICS.items()
            if hook is None or hook in self.installed
        }

    def write(self, path: str) -> None:
        """Write the spans as JSON: name, start, end, parent, request."""
        keys = ("name", "start", "end", "parent", "request")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump([dict(zip(keys, span)) for span in self.spans], fh)

    def not_measured(self) -> list[str]:
        return [name for name, (_, hook) in METRICS.items()
                if hook is not None and hook not in self.installed]


def _size(path) -> int:
    try:
        return os.path.getsize(path)
    except OSError:
        return 0
