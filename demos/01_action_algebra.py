"""Actions as maps: states, processes, words, images, and contexts.

A minimal tour of the core objects.  We build a two-state world whose
process records two binary variables, register a couple of actions, and
watch what composition does to reachable outcomes.
"""

from causalground import (
    ActionModel,
    FactoredSpace,
    FiniteSet,
    TotalMap,
    compose,
    outcome_map,
)

# Two states.  The process reads off two binary variables: in x1 both are
# zero, in x2 both are one.
states = FiniteSet("X", ("x1", "x2"))
space = FactoredSpace(
    (("left", FiniteSet("left", ("0", "1"))),
     ("right", FiniteSet("right", ("0", "1"))))
)
process = TotalMap(states, space.total, {"x1": "0|0", "x2": "1|1"})

# Two actions: swap the states, or collapse everything onto x1.  The
# identity is synthesized automatically.
model = ActionModel(
    states,
    space,
    {
        "swap": TotalMap(states, states, {"x1": "x2", "x2": "x1"}),
        "collapse": TotalMap.constant(states, states, "x1"),
    },
    process,
)

print("generators:", ", ".join(model.labels))

# Words compose rightmost-first: ("swap", "collapse") means collapse, then
# swap, so every state ends up at x2.
word = ("swap", "collapse")
print("do(swap . collapse):", compose(model, word).table)

# The outcome map answers "what would the process record from here".
print("outcome of the empty word:", outcome_map(model, ()).table)
print("outcome of the word on 'left' only:", outcome_map(model, word, ("left",)).table)

# Images shrink under precomposition: acting first can only restrict what
# the process may produce.
print("possible outcomes, no action:  ", outcome_map(model, ()).image())
print("possible outcomes after word:  ", outcome_map(model, word).image())

# The context of a word is where you can be after doing it.
print("context of ():        ", compose(model, ()).image())
print("context of (collapse):", compose(model, ("collapse",)).image())

# Projections come with the factored space, down to the empty subset.
for name, ids in (("'right'", ("right",)), ("no variables", ())):
    table = {e: space.project_element(e, ids) for e in space.total.elements}
    print(f"projection onto {name}:", table)
