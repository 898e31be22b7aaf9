"""Finite-model verification for grounded causal action models.

States, actions-as-maps, and processes over explicit finite sets;
decision procedures for determination, effectiveness, invariance,
surgicality, and naturality; an SCM encoder with an exhaustive law suite;
and a deterministic domino micro-world grounding the whole stack.
"""

from .core import (
    ActionModel,
    CausalGroundError,
    EnumerationLimitError,
    FactoredSpace,
    FiniteSet,
    TotalMap,
    UnknownLabelError,
    UnknownVariableError,
    Word,
    compose,
    max_table_entries,
    outcome_map,
    unit_set,
)
from .checkers import (
    BaseDeterminationError,
    CommutationResult,
    DeterminationResult,
    EffectivenessResult,
    InvarianceResult,
    MechanismRecord,
    SurgicalVerdict,
    check_commute,
    check_determination,
    check_effectiveness,
    check_invariance,
    check_overwrite,
    check_surgical,
    discover_mechanisms,
    probe_record,
)
from .abstraction import (
    ModelMorphism,
    NaturalityReport,
    SurjectivityReport,
    check_naturality,
    check_surjectivity_assumptions,
    compose_morphisms,
)
from .scm import (
    CyclicScmError,
    LawReport,
    Scm,
    default_mechanism_records,
    encode_scm,
    random_scm,
    verify_scm_laws,
)
from .dominoes import (
    LineFamily,
    build_bounded_model,
    five_chain_family,
    four_chain_family,
    line6_family,
    three_chain_family,
)

__version__ = "0.1.0"
