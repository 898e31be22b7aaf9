"""The bytes of every model and morphism file the CLI writes.

The sha256 of each file ``build-model`` writes for the three chain
families and ``tests/data/family_tiny.json``, and of ``encode-scm``'s
model for seeds 0-4, are pinned: a writer change that moves a single byte
fails here.  The text ``io.to_json`` renders from positions must equal the
stdlib's layout of the reference writers' dicts in ``tests/oracles.py``,
here over the random model corpus and seeded SCMs; ``tests/test_dominoes``
checks the four domino families (morphisms with references and inline) and
``tests/test_render_labels`` labels that need escaping.
"""

import hashlib
import os

import pytest

from causalground import io as cgio
from causalground.cli import run
from causalground.dominoes import (
    five_chain_family,
    four_chain_family,
    three_chain_family,
)
from causalground.io import to_json
from causalground.scm import encode_scm, random_scm
from oracles import model_to_dict, reference_text

DATA = os.path.join(os.path.dirname(__file__), "data")

BUILT = {
    "three_chain": (
        three_chain_family,
        "4c6b9505a41d7f9765be25cfa649fa71b09a26e10fa92a8683487f872f5f5751",
        "e79d23c4774ef167c49b96bdfdf8e90c61061d249045a8e190cd5ed16e112963",
        "cb64f1cc02789f1e32791ff4115ae29594ff9361cea9954db7648185c963758b",
    ),
    "four_chain": (
        four_chain_family,
        "265e94cf78af464463cd9e0e0e390f401fffa7b1c788e023a65c8a96f779d99d",
        "39c6b3ba5ea7d6692c2becd46c85cc3a9a1236ff925afd3dcb97a20bc220225a",
        "ea7b0da4614ef81c8de57e9c20295d6c9b80ca7323ee7bb76bcbcb5d631bd451",
    ),
    "five_chain": (
        five_chain_family,
        "4482fe223d8656a28016a93160ac93b14e2c8f8f6c7be1c4ab5f688ef5a0d165",
        "0bc8fc3b52d1293e4700768cb7a3e924edefd33678ede300674c86e365dbe7f9",
        "1bb4aadd81fd005aa8bb196e73b8be80f0490e14e73c59ce49f9fc082c9bdc80",
    ),
    "family_tiny": (
        None,
        "db0ebf31ac4cafc09b89630f39642a8550b6ee8cb72dd301930a82fd66b2345b",
        "a2736005d1b51d5a142fc5a2faf40f34392ec6c1266c28e90a1c953675f84799",
        "f1b736ed44b2824f209061e1c63f6a55bc4dc3c77730e467e1e575f106853e35",
    ),
}

ENCODED = {
    0: "22fa83fdbf8f45c7d86e0b237bb9a6c8ad85ad1419e3f582cd82ba48e2edc280",
    1: "0c623e7ef3d579126cdabf6f9cc061b6a3d6a47edcdd69773fc6ea043f00b5f2",
    2: "cce7cc069da4ed05fe07bed4e0a0c314baaa59d56887576e7430bb0095edc458",
    3: "e4ca1725f9521f1028dbd01bb4d9f6e91808272c825ddd6f95fc099b5c5cfd2d",
    4: "ff066af41ed6eda5b39c35879f7a473be60fb3b99b13da89014d5e7683fc456d",
}


def sha256(path) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


@pytest.mark.parametrize("name", sorted(BUILT))
def test_build_model_files_keep_their_bytes(name, tmp_path, monkeypatch, capsys):
    make, *expected = BUILT[name]
    if make is not None:
        # the chain families have no family file: hand build-model the family
        monkeypatch.setattr(cgio, "load_family", lambda path: make())
    family = os.path.join(DATA, "family_tiny.json")
    assert run(["build-model", "--family", family, "--out", str(tmp_path)]) == 0
    capsys.readouterr()
    files = ("micro_model.json", "abstract_model.json", "morphism.json")
    assert [sha256(tmp_path / f) for f in files] == expected


@pytest.mark.parametrize("seed", sorted(ENCODED))
def test_encode_scm_model_file_keeps_its_bytes(seed, tmp_path, capsys):
    out = tmp_path / "model.json"
    run(["encode-scm", "--seed", str(seed), "--out", str(out)])
    capsys.readouterr()
    assert sha256(out) == ENCODED[seed]


def test_rendered_models_match_the_reference_over_the_corpus(model_corpus):
    for model, _ in model_corpus:
        assert to_json(model) == reference_text(model_to_dict(model))


@pytest.mark.parametrize("seed", range(60))
def test_rendered_scm_model_matches_the_reference(seed):
    model = encode_scm(random_scm(seed))
    assert to_json(model) == reference_text(model_to_dict(model))
