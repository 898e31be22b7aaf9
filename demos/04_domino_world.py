"""The domino micro-world: simulation, chains, and mechanisms.

Dominoes stand on a row of cells; a state is a label naming each domino's
tag (or '-' for a gap), a bit per allowed barrier edge and the push
designation.  The process pushes the designated domino and lets
everything fall: barriers block and gaps stop propagation.  On top of
the process we enumerate a bounded family of states into an action
model and interrogate the adjacency mechanism of a chain.
"""

from causalground import (
    TotalMap,
    build_bounded_model,
    check_invariance,
    five_chain_family,
)

family = five_chain_family()
print("push d1 east:        ", family.process("00000/b0000/pd1E"))
print("barrier between 3,4: ", family.process("00000/b0010/pd1E"))
print("remove d2 first:     ", family.process("0-000/b0000/pd1E"))

# Enumerate the 5-chain family (presence, barriers, push designation)
# into micro and abstract action models.
micro, model, morphism = build_bounded_model(family)
print("\nfamily sizes:", len(micro.states), "micro states,",
      len(model.outcomes.total), "joint outcome assignments")

# The adjacency mechanism: after initializing the chain and choosing to
# push d1 east, the fate of each domino predicts the fate of the next one
# via {fallen-E -> fallen-E, upright -> upright}.
space = model.outcomes
context = ("choose-push-d1-E", "init-chain5")
dom = space.subspace(("d3",)).total
cod = space.subspace(("d4",)).total
table = {status: "upright" for status in dom.elements}
table["fallen-E"] = "fallen-E"
adjacency = TotalMap(dom, cod, table)

for later, label in [
    (("remove-d1",), "removing an upstream domino"),
    (("add-barrier-1-2",), "a barrier elsewhere"),
    (("choose-push-d2-E",), "pushing an upstream domino east"),
    (("add-barrier-3-4",), "a barrier between the pair"),
    (("choose-push-d4-W",), "pushing the downstream domino west"),
    (("remove-d4",), "removing the downstream domino"),
]:
    result = check_invariance(model, context, adjacency, ("d3",), ("d4",), later)
    status = "invariant" if result.holds else f"BROKEN at {result.violating_state}"
    print(f"d3 -> d4 under {label}: {status}")
