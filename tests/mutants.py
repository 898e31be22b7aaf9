"""Hand-made mutants of the integer-coded checker kernel.

Each fixture patches one kernel function with ``monkeypatch`` for the
length of a test (the compose and rows mutants patch ``_Image``, which
would otherwise reuse, or leave behind, an image a model keeps);
``test_metamorphic.test_kernel_mutant_is_caught`` asserts that the oracle
cross-check or a metamorphic relation catches each one.  The SCM solver
mutant patches ``scm._solve``, which only the encoder calls: the SCM
law suite, the reference encoding and the response oracle, none of which
runs it, must each catch it.  The domino
process and family label mutants stay out of ``MUTANTS``: the reference
family build catches them (``test_dominoes.test_process_mutant_is_caught_by_the_reference_build``
and ``test_dominoes.test_family_label_mutant_is_caught_by_the_reference_build``).
"""

import math

from causalground import checkers, dominoes, scm
from causalground.core import (
    ID_LABEL,
    SEP,
    ActionModel,
    FactoredSpace,
    TotalMap,
    _first_mismatch,
    _Image,
    _Product,
    _rows,
)


def composition_left_to_right(monkeypatch):
    """Words act leftmost letter first."""

    def compose(self, word, table=None):
        for label in word:
            g = self.generators[label]._codes
            table = g if table is None else [g[y] for y in table]
        return self.generators[ID_LABEL]._codes if table is None else table

    def image(self, model, word):
        self.model, self.word, self.table = model, tuple(word), model._compose(word)
        self.reached = list(dict.fromkeys(self.table))
        self.codes, self.rows = _rows(model, self.reached)

    monkeypatch.setattr(ActionModel, "_compose", compose)
    # A model keeps the image of its last context.  Image afresh, so that
    # no image composed before the patch is read and none composed under
    # it is left on a model that outlives the patch.
    monkeypatch.setattr(_Image, "__init__", image)


def projection_columns_swapped(monkeypatch):
    """The first two variables of a projection trade places in its code."""
    project = FactoredSpace._project

    def swapped(self, ids, codes):
        return project(self, tuple(ids[1::-1]) + tuple(ids[2:]), codes)

    monkeypatch.setattr(FactoredSpace, "_project", swapped)


def projection_first_variable_fastest(monkeypatch):
    """A projection decodes positions with the first variable varying
    fastest, not the last."""

    def project(self, ids, codes):
        strides, stride = {}, 1
        for v, dom in self.variables:
            strides[v], stride = (stride, len(dom)), stride * len(dom)
        projected = [0] * len(codes)
        for v in ids:
            stride, radix = strides[v]
            projected = [p * radix + c // stride % radix for p, c in zip(projected, codes)]
        return projected

    monkeypatch.setattr(FactoredSpace, "_project", project)


def columns_first_variable_fastest(monkeypatch):
    """A space's value columns, which SCM encoding reads, run with the
    first variable varying fastest, not the last, while ``total`` and the
    projections still run the last variable fastest."""

    def columns(self):
        size, out, stride = math.prod(len(dom) for _, dom in self.variables), {}, 1
        for v, dom in self.variables:
            block = [x for x in dom.elements for _ in range(stride)]
            out[v], stride = block * (size // len(block)), stride * len(dom)
        return out

    def subspace(self, var_ids):
        ids = self.normalize_vars(var_ids)
        if ids == self.var_ids:
            return self
        return FactoredSpace(tuple((v, self.domain_of(v)) for v in ids))

    monkeypatch.setattr(FactoredSpace, "_columns", columns)
    # A space keeps each subspace it builds.  Build afresh, so that no
    # subspace enumerated under the patch is left on a space that outlives it.
    monkeypatch.setattr(FactoredSpace, "subspace", subspace)


def layout_first_variable_fastest(monkeypatch):
    """A space's layout table gives the first variable stride 1, not the
    last, and its ``total`` reads that table, while ``total``'s elements
    still enumerate the product the last variable fastest.  A product's
    length is read as its largest stride times radix, which either order
    gives, so the mutant miscodes outcomes instead of crashing."""
    post_init = FactoredSpace.__post_init__

    def first_fastest(self):
        post_init(self)
        layout, stride = {}, 1
        for v, (dom, _, radix) in self._layout.items():
            layout[v], stride = (dom, stride, radix), stride * radix
        object.__setattr__(self, "_layout", layout)
        if layout:
            total = _Product(self.total.id, [dom for dom, _, _ in layout.values()])
            object.__setattr__(total, "_layout", tuple(layout.values()))
            object.__setattr__(self, "total", total)

    def subspace(self, var_ids):
        ids = self.normalize_vars(var_ids)
        if ids == self.var_ids:
            return self
        return FactoredSpace(tuple((v, self.domain_of(v)) for v in ids))

    def length(self):
        return max(stride * radix for _, stride, radix in self._layout)

    monkeypatch.setattr(FactoredSpace, "__post_init__", first_fastest)
    monkeypatch.setattr(_Product, "__len__", length)
    # A space keeps each subspace it builds.  Build afresh, so that no
    # space built under the patch is left on a space that outlives it.
    monkeypatch.setattr(FactoredSpace, "subspace", subspace)


def labels_first_variable_fastest(monkeypatch):
    """A joint outcome label is decoded from its position with the first
    variable varying fastest, not the last."""

    def label(self, k):
        values = []
        for dom in self.domains:
            k, r = divmod(k, len(dom))
            values.append(dom.elements[r])
        return SEP.join(values)

    def table(self):
        return dict(zip(self.domain.elements, map(self.codomain.label, self._codes)))

    monkeypatch.setattr(_Product, "label", label)
    # A map keeps its label table, built through ``label`` on first read.
    # Build afresh, so that no table built before the patch is read and
    # none built under it is left on a map that outlives the patch.
    monkeypatch.setattr(TotalMap, "table", property(table))


def positions_first_variable_fastest(monkeypatch):
    """A joint outcome label is found at the position that reads its
    values with the first variable varying fastest, not the last."""

    def position(self, element):
        values = element.split(SEP) if isinstance(element, str) else ()
        if len(values) != len(self.domains):
            return None
        k = 0
        for dom, value in zip(reversed(self.domains), reversed(values)):
            r = dom.position(value)
            if r is None:
                return None
            k = k * len(dom) + r
        return k

    monkeypatch.setattr(_Product, "position", position)


def rows_in_last_occurrence_order(monkeypatch):
    """An image lists its distinct rows in last-occurrence order, not
    first-occurrence order."""

    def image(self, model, word):
        self.model, self.word, self.table = model, tuple(word), model._compose(word)
        self.reached = list(dict.fromkeys(self.table))
        self.codes, _ = _rows(model, self.reached)
        self.rows = list(dict.fromkeys(reversed(self.codes)))[::-1]

    # Image afresh, as the compose mutant does: no rows kept before the
    # patch are read, and none built under it outlive it.
    monkeypatch.setattr(_Image, "__init__", image)


def scan_skips_last_state(monkeypatch):
    """The determination scan never looks at the last row."""
    scan = checkers._scan_determination

    def short_scan(codes_i, codes_j):
        return scan(codes_i[:-1], codes_j[:-1])

    monkeypatch.setattr(checkers, "_scan_determination", short_scan)


def unique_on_codomain(monkeypatch):
    """``unique`` asks whether the J-outcome is onto Y_J instead of the
    I-outcome onto Y_I."""
    witness = checkers._witness

    def codomain_witness(model, ids_i, ids_j, bound):
        built, _ = witness(model, ids_i, ids_j, bound)
        # The binding holds, so its values are the J-codes of the rows.
        return built, len(set(bound.values())) == len(model.outcomes.subspace(ids_j).total)

    monkeypatch.setattr(checkers, "_witness", codomain_witness)


def binds_last_j_code(monkeypatch):
    """The determination scan binds each I-code to the J-code of the last
    row that has it, not the first."""

    def last_binding(codes_i, codes_j):
        bound = dict(zip(codes_i, codes_j))
        return bound, _first_mismatch([bound[c] for c in codes_i], codes_j)

    monkeypatch.setattr(checkers, "_scan_determination", last_binding)


def counterexample_from_last_reacher(monkeypatch):
    """A reached state is named by the last state that reaches it, not
    the first."""

    def last(self, k):
        table = self.table
        x = len(table) - 1 - table[::-1].index(self.reached[k])
        return self.model.states.label(x)

    monkeypatch.setattr(_Image, "state", last)


def after_skips_the_last_reached_state(monkeypatch):
    """A later word acts on every state the context reaches but the last."""

    def after(self, word):
        return _rows(self.model, self.model._compose(word, self.reached[:-1]))

    monkeypatch.setattr(_Image, "after", after)


def barrier_read_behind_the_falling_domino(monkeypatch):
    """A fall from cell k to cell j is stopped by the barrier on the edge
    behind cell k (``min(k, j)``), not on the edge it crosses."""

    def micro_proc(family, label):
        row, bits, push = family.states._split(label)
        ids = family.ids
        status = {i: "upright" if t != "-" else "absent" for i, t in zip(ids, row)}
        k = -1 if push == "-" else ids.index(push[:-1])
        if k < 0 or row[k] == "-":
            return status
        walls = {e for e, b in zip(family.barrier_edges, bits) if b == "1"}
        direction, step = push[-1], {"E": 1, "W": -1}.get(push[-1], 0)
        while True:
            status[ids[k]] = f"fallen-{direction}"
            j = k + step
            if j == k or not 0 <= j < len(row) or row[j] == "-" or min(k, j) in walls:
                return status
            k = j

    monkeypatch.setattr(dominoes, "micro_proc", micro_proc)


def family_labels_bits_fastest(monkeypatch):
    """A family state's label is decoded from its position with the bits
    field varying fastest, not the push."""

    def label(self, k):
        (rows, _, _), (bits, _, bit_count), (pushes, _, push_count) = self._layout
        k, b = divmod(k, bit_count)
        r, p = divmod(k, push_count)
        return self._join((rows.elements[r], bits.elements[b], pushes.elements[p]))

    monkeypatch.setattr(dominoes._States, "label", label)


def interventions_do_not_propagate(monkeypatch):
    """An intervened variable takes its slot's value, but its children
    read the value its structural function gives: the solver solves
    every child as if no variable were intervened."""

    def solve(equations, columns):
        structural = {}
        for vid in equations.topo_order:
            parents, noise = equations.parents[vid], columns[equations.noise_id(vid)]
            keys = zip(*(structural[p] for p in parents), noise)
            structural[vid] = [equations.functions[vid][k] for k in keys]
            slots = columns[vid]
            columns[vid] = [
                x if s == scm.DEFAULT_SLOT else s for s, x in zip(slots, structural[vid])
            ]

    monkeypatch.setattr(scm, "_solve", solve)


MUTANTS = {
    mutant.__name__: mutant
    for mutant in (
        composition_left_to_right,
        columns_first_variable_fastest,
        layout_first_variable_fastest,
        projection_columns_swapped,
        projection_first_variable_fastest,
        labels_first_variable_fastest,
        positions_first_variable_fastest,
        rows_in_last_occurrence_order,
        scan_skips_last_state,
        unique_on_codomain,
        counterexample_from_last_reacher,
        binds_last_j_code,
        after_skips_the_last_reached_state,
        interventions_do_not_propagate,
    )
}
