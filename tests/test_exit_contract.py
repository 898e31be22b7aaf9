"""Property test of the CLI exit-code contract on mutated inputs.

Every command of the CLI goldens is run on a mutated copy of the JSON file
it reads (a key dropped, a value swapped for another type, a reserved
separator inserted, two adjacent strings of a list fused with ``|``) and
with one flag value replaced.  Whatever the input, ``cli.run`` must return
0, 1 or 2 and raise nothing else: 2 for bad input, never a traceback.  A
model file that ``encode-scm`` or ``build-model`` writes must load again.
A file that cannot be read as JSON at all (not UTF-8, or nested deeper
than the decoder recurses) is bad input too.
"""

import json
import os

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import HealthCheck, given, settings, strategies as st  # noqa: E402

from causalground.checkers import discover_mechanisms  # noqa: E402
from causalground.cli import run  # noqa: E402
from causalground.io import load_model, serialize  # noqa: E402

DATA = os.path.join(os.path.dirname(__file__), "data")

MODEL = "model_pair.json"
WITNESS = "witness.json"
MECHANISMS = "mechanisms.json"
MORPHISM = "morphism.json"

# (name, file the command reads that gets mutated, argv with {file}
# placeholders resolved against the workspace)
CASES = [
    ("check-determination", MODEL,
     ["check-determination", "--model", "{model_pair.json}",
      "--vars-i", "v1", "--vars-j", "v2"]),
    ("check-effectiveness", MODEL,
     ["check-effectiveness", "--model", "{model_pair.json}",
      "--word", "const", "--vars-j", "v1,v2"]),
    ("check-invariance", MODEL,
     ["check-invariance", "--model", "{model_pair.json}", "--context", "const",
      "--word", "swap", "--vars-i", "v1", "--vars-j", "v2"]),
    ("check-invariance-witness", WITNESS,
     ["check-invariance", "--model", "{model_pair.json}", "--context", "const",
      "--word", "swap", "--vars-i", "v1", "--vars-j", "v2",
      "--witness", "{witness.json}"]),
    ("check-commute", MODEL,
     ["check-commute", "--model", "{model_pair.json}", "--word", "swap,const"]),
    ("check-overwrite", MODEL,
     ["check-overwrite", "--model", "{model_pair.json}", "--word", "const,swap"]),
    ("check-surgical", MECHANISMS,
     ["check-surgical", "--model", "{model_pair.json}", "--word", "swap",
      "--mechanisms", "{mechanisms.json}", "--context", "const"]),
    ("check-naturality", MORPHISM,
     ["check-naturality", "--morphism", "{morphism.json}"]),
    ("discover", MODEL,
     ["discover", "--model", "{model_pair.json}", "--context", "const",
      "--max-parents", "1"]),
    ("encode-scm", "scm_xor.json",
     ["encode-scm", "--scm", "{scm_xor.json}", "--out", "{xor_model.json}"]),
    ("encode-scm-in-memory", "scm_xor.json",
     ["encode-scm", "--scm", "{scm_xor.json}"]),
    ("simulate", "family_tiny.json",
     ["simulate", "--family", "{family_tiny.json}", "--state", "01/b0/pd1E",
      "--word", "add-barrier-1-2"]),
    ("build-model", "family_tiny.json",
     ["build-model", "--family", "{family_tiny.json}", "--out", "{models}"]),
    ("image", MODEL,
     ["image", "--model", "{model_pair.json}", "--word", "swap", "--vars-i", "v1"]),
]

# The model files each writing command leaves in the workspace, given --out.
WRITTEN = {
    "encode-scm": ["xor_model.json"],
    "build-model": ["models/micro_model.json", "models/abstract_model.json"],
}

# Byte-level edits that leave no JSON document to read.
BYTE_PREFIXES = {
    "invalid-utf8": b"\xff\xfe",
    "deep-nesting": b"[" * 100_000,
    "huge-integer": b"[" + b"9" * 5000 + b",",
}

REPLACEMENTS = [None, True, 0, -1, 5, "", "x", "|", ",", "default", [], ["x"],
                [5], [[0, 0]], {}, {"x": "y"}, {"x": ["y"]}]
FLAG_VALUES = ["", "x", "|", ",", "a,,b", "v1,v1", "x1", "id,id", "swap", "-1",
               "0", "default", "set-V1=0"]


@pytest.fixture(scope="module")
def inputs() -> dict:
    """The unmutated JSON documents, by file name."""
    docs = {}
    for name in (MODEL, "scm_xor.json", "family_tiny.json"):
        with open(os.path.join(DATA, name)) as fh:
            docs[name] = json.load(fh)
    records = discover_mechanisms(load_model(os.path.join(DATA, MODEL)), ("const",), 1)
    docs[WITNESS] = {"table": {"0": "0", "1": "1"}}
    docs[MECHANISMS] = [serialize(r) for r in records]
    docs[MORPHISM] = {
        "source_model": MODEL,
        "target_model": docs[MODEL],
        "state_map": {"x1": "x1", "x2": "x2"},
        "outcome_map": {y: y.split("|") for y in ("0|0", "0|1", "1|0", "1|1")},
        "alphabet_map": {"id": "id", "swap": "swap", "const": "const"},
    }
    return docs


def _paths(node, path=()):
    """Every location in a JSON tree: (path of keys/indices, node)."""
    yield path, node
    if isinstance(node, dict):
        for key, child in node.items():
            yield from _paths(child, path + (key,))
    elif isinstance(node, list):
        for i, child in enumerate(node):
            yield from _paths(child, path + (i,))


def _fusible(node) -> list[int]:
    """Indices i of a list whose items i and i + 1 are both strings."""
    if not isinstance(node, list):
        return []
    return [i for i in range(len(node) - 1)
            if isinstance(node[i], str) and isinstance(node[i + 1], str)]


def _mutate(doc, data):
    """Apply one drawn mutation to a deep copy of a JSON document."""
    doc = json.loads(json.dumps(doc))
    paths = list(_paths(doc))
    ops = ["drop", "replace", "separator", "fuse"]
    op = data.draw(st.sampled_from(ops), label="op")
    if op == "fuse":  # only lists with two adjacent strings can be fused
        paths = [(p, n) for p, n in paths if _fusible(n)] or paths
    path, node = paths[data.draw(st.integers(0, len(paths) - 1), label="where")]
    if not path:
        return data.draw(st.sampled_from(REPLACEMENTS), label="root")
    parent = doc
    for step in path[:-1]:
        parent = parent[step]
    last = path[-1]
    if op == "drop":
        del parent[last]
    elif op == "replace":
        parent[last] = data.draw(st.sampled_from(REPLACEMENTS), label="value")
    elif op == "fuse":  # ["a", "b"] -> ["a|b"]: one joined value for two
        pairs = _fusible(node)
        if pairs:
            i = data.draw(st.sampled_from(pairs), label="pair")
            parent[last] = node[:i] + [node[i] + "|" + node[i + 1]] + node[i + 2:]
    else:
        sep = data.draw(st.sampled_from(["|", ","]), label="separator")
        if isinstance(node, str):
            parent[last] = node + sep + node
        elif isinstance(last, str):
            parent[last + sep + last] = parent.pop(last)
        else:
            parent[last] = sep
    return doc


@pytest.mark.parametrize(
    "target, argv", [pytest.param(t, a, id=n) for n, t, a in CASES]
)
@settings(
    max_examples=25,
    derandomize=True,
    database=None,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(data=st.data())
def test_exit_code_contract(tmp_path, capsys, inputs, target, argv, data):
    docs = dict(inputs)
    docs[target] = _mutate(docs[target], data)
    for filename, doc in docs.items():
        with open(tmp_path / filename, "w") as fh:
            json.dump(doc, fh)
    argv = [str(tmp_path / a[1:-1]) if a.startswith("{") else a for a in argv]
    flags = [i for i, a in enumerate(argv[:-1])
             if a.startswith("--") and not argv[i + 1].startswith(str(tmp_path))]
    if flags and data.draw(st.booleans(), label="mutate a flag"):
        argv[data.draw(st.sampled_from(flags), label="flag") + 1] = data.draw(
            st.sampled_from(FLAG_VALUES), label="flag value"
        )
    written = [tmp_path / name for name in WRITTEN.get(argv[0], []) if "--out" in argv]
    for path in written:  # examples share tmp_path: drop an earlier run's file
        path.unlink(missing_ok=True)
    try:
        code = run(argv)
    except SystemExit as exc:  # argparse rejects a malformed flag value
        code = exc.code
    capsys.readouterr()
    assert code in (0, 1, 2)
    if code == 0:
        for path in written:
            load_model(str(path))


@pytest.mark.parametrize("prefix", sorted(BYTE_PREFIXES))
@pytest.mark.parametrize(
    "target, argv", [pytest.param(t, a, id=n) for n, t, a in CASES]
)
def test_unreadable_file_exits_two(tmp_path, capsys, inputs, target, argv, prefix):
    for filename, doc in inputs.items():
        with open(tmp_path / filename, "w") as fh:
            json.dump(doc, fh)
    path = tmp_path / target
    path.write_bytes(BYTE_PREFIXES[prefix] + path.read_bytes())
    argv = [str(tmp_path / a[1:-1]) if a.startswith("{") else a for a in argv]
    assert run(argv) == 2
    assert f"{target}: at $: invalid JSON" in capsys.readouterr().err
