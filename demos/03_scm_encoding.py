"""Encoding a structural causal model as an action model.

States of the encoded model are (mechanism assignment, exogenous
assignment) pairs; the process solves the equations the mechanisms
indicate.  Value-setting interventions become generators, and the usual
intervention algebra (commute, overwrite, noise invariance, invariant
per-variable determination) is verified exhaustively rather than assumed.
"""

from causalground import (
    FiniteSet,
    Scm,
    check_surgical,
    default_mechanism_records,
    encode_scm,
    outcome_map,
    random_scm,
    verify_scm_laws,
)
from causalground.scm import DEFAULT_SLOT

binary = lambda name: FiniteSet(name, ("0", "1"))

# V1 := U1, V2 := V1 xor U2.
scm = Scm(
    (("U1", binary("U1")), ("U2", binary("U2"))),
    (("V1", binary("V1")), ("V2", binary("V2"))),
    {"V1": (), "V2": ("V1",)},
    {
        "V1": {("0",): "0", ("1",): "1"},
        "V2": {("0", "0"): "0", ("0", "1"): "1", ("1", "0"): "1", ("1", "1"): "0"},
    },
)

model = encode_scm(scm)


def response(word, u):
    """Y(u) after a word: the outcome of the all-default state carrying u."""
    state = "|".join([DEFAULT_SLOT] * len(scm.endo_ids) + list(u))
    values = outcome_map(model, word, scm.endo_ids)(state).split("|")
    return dict(zip(scm.endo_ids, values))


print("potential response, no intervention, u=(1,0):", response((), ("1", "0")))
print("response under do(V1=0), u=(1,1):", response(("set-V1=0",), ("1", "1")))
print("\nencoded model:", len(model.states), "states,",
      len(model.generators), "generators:", ", ".join(sorted(model.generators)))

report = verify_scm_laws(model, scm)
print("law suite ok:", report.ok)
for law, count in report.checked:
    print(f"  {law}: {count} instances")

# The default mechanisms (one per endogenous variable, active after init)
# and a surgical intervention replacing exactly one of them.
records = default_mechanism_records(scm, model)
for record in records:
    print(f"default mechanism {record.describe()}, invariant under",
          list(record.invariant_under))

verdict = check_surgical(model, "set-V2=1", records, ("init",))
print("\nset-V2=1 surgical:", verdict.surgical, "| target:", verdict.target)
print("new mechanism:", verdict.new_mechanism.describe(),
      "with table", verdict.new_mechanism.map.table)
print("its fresh invariances:", list(verdict.new_mechanism.invariant_under))

# The same machinery runs over seeded random SCMs.
fuzzed = random_scm(271)
fuzz_report = verify_scm_laws(encode_scm(fuzzed), fuzzed)
print("\nrandom SCM (seed 271):", len(fuzzed.endo_ids),
      "endogenous variables, laws ok:", fuzz_report.ok)
