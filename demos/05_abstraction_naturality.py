"""Abstraction as a morphism of models, checked square by square.

A detailed model and a simplified one are related by a state map and an
outcome map.  The abstraction is faithful exactly when every action
square and the process square commute over the whole micro state set,
which is decidable here and produces named counterexamples when it fails.
"""

from itertools import product

from causalground import (
    ModelMorphism,
    TotalMap,
    build_bounded_model,
    check_naturality,
    check_surjectivity_assumptions,
    compose,
    line6_family,
    three_chain_family,
)

# The 1x6 family: up to four dominoes, nuisance tags in {0,1,2} that the
# dynamics never read, one barrier edge, pushes designated east or west.
family = line6_family()
micro, abstract, morphism = build_bounded_model(family)
print("micro states:", len(micro.states))
print("abstract states:", len(abstract.states),
      "(tags forgotten, one per class)")

report = check_naturality(morphism)
print("tag-forgetting abstraction natural:", report.natural)

# Sabotage: a state map that also forgets where the barriers are, by
# zeroing the bits of each abstract label <tokens>/b<bits>/p<push>.  The
# action square for adding a barrier and the process square for blocked
# chains stop commuting.
blind = {}
for state, label in morphism.state_map.table.items():
    tokens, bits, push = label.split("/")
    blind[state] = f"{tokens}/b{'0' * (len(bits) - 1)}/{push}"
bad = ModelMorphism(
    micro, abstract, TotalMap(micro.states, abstract.states, blind),
    morphism.outcome_map,
)
broken = check_naturality(bad)
print("barrier-blind abstraction natural:", broken.natural,
      f"({broken.failure_count} failing squares)")
first = broken.failures[0]
print("first failure:", first.square, "square",
      f"generator={first.generator}", f"state={first.state}")

# Generator squares commuting implies word squares commuting; check the
# state square of every two-letter word on a smaller family.
small_micro, small_abstract, small_morphism = build_bounded_model(
    three_chain_family()
)
x = small_morphism.state_map.table
words = list(product(sorted(small_micro.generators), repeat=2))


def word_square_commutes(word):
    micro_do = compose(small_micro, word).table
    abstract_do = compose(small_abstract, small_morphism.translate(word)).table
    return all(x[micro_do[s]] == abstract_do[x[s]] for s in micro_do)


closed = all(word_square_commutes(word) for word in words)
print("word squares of length 2 commute:", closed, f"({len(words)} words)")

# Surjectivity: the micro process is onto by construction and the state
# map is onto, but a per-domino variable choice leaves impossible joint
# outcomes, and their census is part of what the model knows.
surj = check_surjectivity_assumptions(morphism)
print("\nprocess surjective:", surj.process_surjective)
print("state map surjective:", surj.state_map_surjective)
print("outcome map surjective:", surj.outcome_map_surjective)
print("possible joint outcomes:", surj.possible_count,
      "of", surj.possible_count + surj.impossible_count)
print("an impossible outcome:", surj.impossible_sample[1])
