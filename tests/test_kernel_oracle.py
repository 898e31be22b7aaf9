"""The integer-coded checker kernel against the string kernel it replaced.

Every checker's result object must equal the one its reference in
``oracles`` builds from label tables, one state at a time: determination,
effectiveness, invariance, commute/overwrite, discovery, surgicality,
mechanism records and the SCM law report.  Errors must match in type and
message.
"""

import random

import pytest

from causalground.dominoes import (
    build_bounded_model,
    five_chain_family,
    four_chain_family,
    line6_family,
    three_chain_family,
)
from causalground.scm import (
    INIT_LABEL,
    default_mechanism_records,
    encode_scm,
    random_scm,
    verify_scm_laws,
)
from oracles import (
    assert_kernel_agrees,
    random_word,
    reference_probe_record,
    reference_verify_scm_laws,
)


def test_random_models_match_reference(model_corpus):
    rng = random.Random(7)
    for model, word in model_corpus:
        assert_kernel_agrees(model, word, rng, len(model.outcomes.var_ids))


@pytest.mark.parametrize("seed", range(30))
def test_seeded_scms_match_reference(seed):
    scm = random_scm(seed)
    model = encode_scm(scm)
    assert verify_scm_laws(model, scm) == reference_verify_scm_laws(model, scm)
    for record in default_mechanism_records(scm, model):
        assert record == reference_probe_record(
            model, record.target, record.parents, record.map, record.context
        )
    assert_kernel_agrees(model, (INIT_LABEL,), random.Random(seed), 2, pairs=8)


@pytest.mark.parametrize(
    "family",
    [three_chain_family, four_chain_family, five_chain_family, line6_family],
    ids=lambda f: f.__name__,
)
def test_domino_families_match_reference(family):
    micro, abstract, _ = build_bounded_model(family())
    rng = random.Random(family.__name__)
    for model in (abstract, micro):
        # line6 micro has 49 634 states: one query of each kind is enough.
        pairs = 1 if len(model.states) > 20_000 else 3
        assert_kernel_agrees(model, random_word(rng, model), rng, 1, pairs)
