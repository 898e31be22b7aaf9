"""Acyclic structural causal models and their encoding as action models.

An SCM here is fully tabular: finite exogenous and endogenous domains,
explicit parent lists, and structural functions given as lookup tables.
Each endogenous variable is paired with exactly one exogenous variable
(a unit-set one when the SCM has none for it).

The encoding follows the mechanism-space construction: states are pairs
of a mechanism assignment and an exogenous assignment, the process solves
the indicated equations, and the generators are an initializer plus one
value-setting intervention per endogenous value.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from graphlib import CycleError, TopologicalSorter
from itertools import product
from typing import Iterable, Optional

from .core import (
    ID_LABEL,
    ActionModel,
    CausalGroundError,
    FactoredSpace,
    FiniteSet,
    TotalMap,
    _first_mismatch,
    _Image,
    outcome_map,
)
from .checkers import (
    MechanismRecord,
    _Prediction,
    check_commute,
    check_overwrite,
    probe_record,
)

#: Mechanism-slot token selecting the structural function for a variable.
DEFAULT_SLOT = "default"

INIT_LABEL = "init"


class CyclicScmError(CausalGroundError):
    """The parent relation admits no topological order."""


def set_label(var_id: str, value: str) -> str:
    """Generator label of the intervention fixing one endogenous value."""
    return f"set-{var_id}={value}"


@dataclass(frozen=True)
class Scm:
    """A finite structural causal model (U, V, F).

    ``exogenous`` and ``endogenous`` are position-paired: the i-th
    exogenous variable is the noise input of the i-th endogenous one.
    ``functions[v]`` maps (parent values in declared parent order, paired
    exogenous value) to a value of v and must be total over that product.
    """

    exogenous: tuple[tuple[str, FiniteSet], ...]
    endogenous: tuple[tuple[str, FiniteSet], ...]
    parents: dict[str, tuple[str, ...]]
    functions: dict[str, dict[tuple[str, ...], str]]
    topo_order: tuple[str, ...] = field(init=False, compare=False)
    _domains: dict[str, FiniteSet] = field(init=False, repr=False, compare=False)
    _noise: dict[str, str] = field(init=False, repr=False, compare=False)
    _set_labels: dict[str, tuple[str, ...]] = field(init=False, repr=False, compare=False)

    __hash__ = None

    def __post_init__(self):
        object.__setattr__(self, "exogenous", tuple(self.exogenous))
        object.__setattr__(self, "endogenous", tuple(self.endogenous))
        if len(self.exogenous) != len(self.endogenous):
            raise ValueError(
                "each endogenous variable needs exactly one paired exogenous "
                f"variable: got {len(self.endogenous)} endogenous, "
                f"{len(self.exogenous)} exogenous"
            )
        ids = [v for v, _ in self.exogenous] + [v for v, _ in self.endogenous]
        if len(set(ids)) != len(ids):
            raise ValueError("variable ids must be distinct across U and V")
        # An endogenous id and its values become part of set-<id>=<value>
        # labels, and words join labels with ",".
        for vid, dom in self.endogenous:
            if "," in vid:
                raise ValueError(f"endogenous id {vid!r} must not contain ','")
            comma = next((x for x in dom.elements if "," in x), None)
            if comma is not None:
                raise ValueError(f"value {comma!r} of {vid!r} must not contain ','")
        object.__setattr__(self, "_domains", dict(self.exogenous + self.endogenous))
        noise = {v: u for (v, _), (u, _) in zip(self.endogenous, self.exogenous)}
        object.__setattr__(self, "_noise", noise)
        for vid in noise:
            if vid not in self.parents:
                raise ValueError(f"no parent list for {vid!r}")
            for k, p in enumerate(self.parents[vid]):
                if p not in noise:
                    raise ValueError(f"parent {p!r} of {vid!r} is not endogenous")
                if p in self.parents[vid][:k]:
                    raise ValueError(f"parent {p!r} of {vid!r} is listed twice")
        graph = TopologicalSorter({v: self.parents[v] for v in noise})
        try:
            object.__setattr__(self, "topo_order", tuple(graph.static_order()))
        except CycleError as exc:
            raise CyclicScmError(
                f"parent relation has a cycle through {exc.args[1][0]!r}"
            ) from None
        for vid, dom in self.endogenous:
            if DEFAULT_SLOT in dom:
                raise ValueError(f"domain of {vid!r} holds the slot token {DEFAULT_SLOT!r}")
            table = self.functions.get(vid)
            if table is None:
                raise ValueError(f"no function table for {vid!r}")
            doms = [self.domain_of(p).elements for p in self.parents[vid]]
            keys = set(product(*doms, self.noise_of(vid).elements))
            if set(table) != keys:
                missing = sorted(keys - set(table))
                extra = sorted(set(table) - keys)
                bad = missing[0] if missing else extra[0]
                raise ValueError(
                    f"function table for {vid!r} is not total over its "
                    f"parents and noise: offending key {bad!r}"
                )
            for key, value in table.items():
                if value not in dom:
                    raise ValueError(
                        f"function for {vid!r} returns {value!r} at {key!r}, "
                        f"outside its domain"
                    )
        # One label per intervention: "A=0" set to "1" and "A" set to "0=1" clash.
        labels = {v: tuple(set_label(v, x) for x in d.elements) for v, d in self.endogenous}
        flat = [label for row in labels.values() for label in row]
        if len(set(flat)) < len(flat):
            shared = next(label for label in flat if flat.count(label) > 1)
            raise ValueError(f"two interventions share the label {shared!r}")
        object.__setattr__(self, "_set_labels", labels)

    @property
    def exo_ids(self) -> tuple[str, ...]:
        return tuple(v for v, _ in self.exogenous)

    @property
    def endo_ids(self) -> tuple[str, ...]:
        return tuple(v for v, _ in self.endogenous)

    def domain_of(self, vid: str) -> FiniteSet:
        try:
            return self._domains[vid]
        except KeyError:
            raise ValueError(f"unknown SCM variable {vid!r}") from None

    def noise_of(self, vid: str) -> FiniteSet:
        """Domain of the exogenous variable paired with an endogenous one."""
        return self.domain_of(self.noise_id(vid))

    def noise_id(self, vid: str) -> str:
        try:
            return self._noise[vid]
        except KeyError:
            raise ValueError(f"unknown endogenous variable {vid!r}") from None


def _solve(scm: Scm, columns: dict[str, list[str]]) -> None:
    """Replace, in topological order, each endogenous variable's column of
    valid slots with its values, read off the parent and noise columns."""
    for vid in scm.topo_order:
        f, slots = scm.functions[vid], columns[vid]
        keys = zip(*(columns[p] for p in scm.parents[vid]), columns[scm.noise_id(vid)])
        columns[vid] = [f[k] if s == DEFAULT_SLOT else s for s, k in zip(slots, keys)]


def slot_domain(scm: Scm, vid: str) -> FiniteSet:
    return FiniteSet(f"M({vid})", (DEFAULT_SLOT,) + scm.domain_of(vid).elements)


def encode_scm(scm: Scm) -> ActionModel:
    """Encode an SCM as an action model.

    States are (mechanism assignment, exogenous assignment) pairs: the
    ``total`` of the product of one slot variable per endogenous variable,
    then the exogenous variables.  The outcome space is the
    exogenous variables followed by the endogenous ones; the process
    records u together with the potential response, so Y_x(u) is the
    outcome after ``set-X=x`` on the all-default state carrying u.
    Generators: the identity, ``init`` (reset every slot to default,
    keeping u), and one ``set-V=v`` per endogenous value (replace that
    slot, keeping u and the other slots).  No generator touches u; the
    exogenous values vary only across initial states.
    """
    endo = scm.endo_ids
    slot_vars = tuple((vid, slot_domain(scm, vid)) for vid in endo)
    space = FactoredSpace(slot_vars + scm.exogenous)
    states, outcomes = space.total, FactoredSpace(scm.exogenous + scm.endogenous)
    columns = space._columns()
    _solve(scm, columns)
    # u, then the response, popped: no label column outlives the coding.
    codes = outcomes._code([columns.pop(v) for v in outcomes.var_ids])
    process_map = TotalMap._of(states, outcomes.total, codes)
    layout = space._layout
    positions = list(range(len(states)))  # shared: no table holds a fresh int
    # A slot's position 0 is the default, then come the variable's values.
    # The slots lead each state, so init keeps only the exogenous digits.
    low = layout[endo[-1]][1] if endo else 1
    tables = {INIT_LABEL: [positions[p % low] for p in positions]}
    for vid in endo:
        _, stride, radix = layout[vid]
        default = [p - p // stride % radix * stride for p in positions]
        for k, label in enumerate(scm._set_labels[vid], 1):
            tables[label] = [positions[p + k * stride] for p in default]
    generators = {a: TotalMap._of(states, states, t) for a, t in tables.items()}
    return ActionModel(states, outcomes, generators, process_map)


@dataclass(frozen=True)
class LawViolation:
    law: str
    subject: str
    state: Optional[str]


@dataclass(frozen=True)
class LawReport:
    ok: bool
    checked: tuple[tuple[str, int], ...]
    violations: tuple[LawViolation, ...]


LAW_COMMUTE = "commute"
LAW_OVERWRITE = "overwrite"
LAW_U_INVARIANT = "u-invariant"
LAW_DETERMINATION = "determination"
LAW_INVARIANCE = "determination-invariance"


def _mechanism_witness(
    scm: Scm, space: FactoredSpace, vid: str, slot: str
) -> TotalMap:
    """The mechanism a slot makes active for vid, as a map on outcomes.

    Its domain is the outcome subspace of vid's paired noise and parents
    (in declared order), its codomain vid's own subspace: vid's function
    table read over that subspace's columns, or the slot's value as the
    constant map.  No solver runs, so the laws check the encoder's solve
    against the tables.
    """
    sub = space.subspace((scm.noise_id(vid),) + scm.parents[vid])
    target, f, columns = space.subspace((vid,)), scm.functions[vid], sub._columns()
    keys = zip(*(columns[p] for p in scm.parents[vid]), columns[scm.noise_id(vid)])
    values = [f[k] if slot == DEFAULT_SLOT else slot for k in keys]
    return TotalMap._of(sub.total, target.total, target._code([values]))


def verify_scm_laws(model: ActionModel, scm: Scm) -> LawReport:
    """Exhaustively verify the intervention algebra of an encoded SCM.

    Five laws, each checked over every state: (1) interventions on
    different variables commute, (2) interventions on the same variable
    overwrite, (3) no generator changes the exogenous part of the outcome,
    (4) after init or a value intervention, the target variable is
    determined by its parents and noise via the active mechanism, and
    (5) law 4 survives any later intervention on other variables.  Laws
    1 and 2 run the generic checkers, laws 4 and 5 the witness test that
    ``probe_record`` and ``check_invariance`` use; each violation names
    the first offending state.
    """
    endo, set_labels = scm.endo_ids, scm._set_labels
    if set(model.generators) != {INIT_LABEL, ID_LABEL}.union(*set_labels.values()):
        raise ValueError("model generators do not match the SCM encoding")
    violations: list[LawViolation] = []
    checked: list[tuple[str, int]] = []

    def tally(law: str, cases: Iterable[tuple[str, Optional[str]]]) -> None:
        """Record each (subject, first offending state or None) of a law."""
        cases = list(cases)
        violations.extend(LawViolation(law, s, x) for s, x in cases if x is not None)
        checked.append((law, len(cases)))

    tally(LAW_COMMUTE, (
        (f"{a} vs {b}", check_commute(model, a, b).state)
        for i, vi in enumerate(endo)
        for vj in endo[i + 1 :]
        for a in set_labels[vi]
        for b in set_labels[vj]
    ))
    tally(LAW_OVERWRITE, (
        (f"{a} after {b}", check_overwrite(model, a, b).state)
        for vid in endo
        for a in set_labels[vid]
        for b in set_labels[vid]
    ))

    before = outcome_map(model, (), scm.exo_ids)._codes  # decoded once per row

    def u_changed(label: str) -> Optional[str]:
        x = _first_mismatch([before[y] for y in model._compose((label,))], before)
        return None if x is None else model.states.label(x)

    tally(LAW_U_INVARIANT, ((label, u_changed(label)) for label in model.generators))

    # Laws 4 and 5 check each active mechanism on the states its label
    # reaches, then after each later intervention on those states.  Every
    # variable shares the one image of init.
    determined: list[tuple[str, Optional[str]]] = []
    invariant: list[tuple[str, Optional[str]]] = []
    init = _Image(model, (INIT_LABEL,))
    for vid in endo:
        parents = (scm.noise_id(vid),) + scm.parents[vid]
        laters = [ID_LABEL] + [b for v in endo if v != vid for b in set_labels[v]]
        for label, slot in [
            (INIT_LABEL, DEFAULT_SLOT),
            *zip(set_labels[vid], scm.domain_of(vid).elements),
        ]:
            witness = _mechanism_witness(scm, model.outcomes, vid, slot)
            prediction = _Prediction(model, parents, (vid,), witness)
            image = init if label == INIT_LABEL else _Image(model, (label,))
            hit = prediction.violation(image, ())
            determined.append((f"{vid} after {label}", hit and hit[0]))
            for later in laters:
                hit = prediction.violation(image, (later,))
                invariant.append((f"{vid} after {label}, then {later}", hit and hit[0]))
    tally(LAW_DETERMINATION, determined)
    tally(LAW_INVARIANCE, invariant)
    return LawReport(not violations, tuple(checked), tuple(violations))


def default_mechanism_records(scm: Scm, model: ActionModel) -> list[MechanismRecord]:
    """One mechanism record per endogenous variable, in the init context.

    Each record states that the variable is determined by its parents and
    paired noise via its structural function after initialization, probed
    for invariance against every generator.
    """
    records = []
    for vid in scm.endo_ids:
        witness = _mechanism_witness(scm, model.outcomes, vid, DEFAULT_SLOT)
        parents = (scm.noise_id(vid),) + scm.parents[vid]
        records.append(probe_record(model, vid, parents, witness, (INIT_LABEL,)))
    return records


def random_scm(
    seed: int, n_endo: int = 4, n_exo_values: int = 2, domain_size: int = 2
) -> Scm:
    """Deterministic-by-seed random acyclic SCM within the given bounds.

    Parents are drawn from earlier variables only, so acyclicity holds by
    construction.  Sizes are drawn up to the given maxima.
    """
    rng = random.Random(seed)
    n = rng.randint(1, n_endo)
    endo = []
    exo = []
    for i in range(1, n + 1):
        size = rng.randint(2, max(2, domain_size))
        endo.append((f"V{i}", FiniteSet(f"V{i}", tuple(str(k) for k in range(size)))))
        u_size = rng.randint(1, n_exo_values)
        exo.append((f"U{i}", FiniteSet(f"U{i}", tuple(str(k) for k in range(u_size)))))
    parents = {}
    functions = {}
    for i, (vid, dom) in enumerate(endo):
        pool = [endo[k][0] for k in range(i)]
        parents[vid] = tuple(p for p in pool if rng.random() < 0.5)
        keys = product(
            *[endo[[e[0] for e in endo].index(p)][1].elements for p in parents[vid]],
            exo[i][1].elements,
        )
        functions[vid] = {key: rng.choice(dom.elements) for key in keys}
    return Scm(tuple(exo), tuple(endo), parents, functions)
