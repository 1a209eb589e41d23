from fractions import Fraction

import pytest

import supvar.algebra
from supvar.algebra import (
    DetectingSubalgebra,
    LieSuperalgebraData,
    detecting_subalgebra,
    gl_even_subalgebra,
    gl_superalgebra,
)
from supvar.errors import InvariantBroken, SupvarError
from supvar.linalg import ONE, ZERO, axpy


def test_gl11_basis_and_parities():
    g = gl_superalgebra(1, 1)
    assert len(g.labels) == 4
    assert sum(1 for lab in g.labels if g.parity[lab] == 0) == 2
    assert sum(1 for lab in g.labels if g.parity[lab] == 1) == 2


def test_matrix_unit_brackets():
    g = gl_superalgebra(1, 1)
    assert g.bracket(("E", 1, 2), ("E", 2, 1)) == {("E", 1, 1): ONE, ("E", 2, 2): ONE}
    assert g.bracket(("E", 1, 1), ("E", 1, 2)) == {("E", 1, 2): ONE}
    g2 = gl_superalgebra(2, 1)
    # [E13, E32] = E12 with both factors odd
    assert g2.bracket(("E", 1, 3), ("E", 3, 2)) == {("E", 1, 2): ONE}
    # even-even commutator keeps its sign
    assert g2.bracket(("E", 2, 1), ("E", 1, 2)) == {("E", 2, 2): ONE, ("E", 1, 1): -ONE}


def test_z_grading():
    g = gl_superalgebra(2, 1)
    assert g.z_degree[("E", 1, 3)] == 1
    assert g.z_degree[("E", 3, 1)] == -1
    assert g.z_degree[("E", 1, 2)] == 0
    assert all(g.z_degree[lab] == 0 for lab in g.even_labels())


def test_axiom_check_rejects_bad_structure():
    g = gl_superalgebra(2, 1)
    labels = [("E", 1, 1), ("E", 1, 2)]
    parity = {lab: 0 for lab in labels}
    structure = {(("E", 1, 1), ("E", 1, 2)): {("E", 1, 2): 1}}  # missing the flip
    with pytest.raises(SupvarError):
        LieSuperalgebraData("broken", labels, parity, structure, g.weight_of, g.z_degree, 2, 1)


def reference_check_axioms(labels, parity, structure):
    """The all-triples axiom check in Fractions: the reference for _check_axioms."""
    table = {pair: {k: Fraction(v) for k, v in br.items()} for pair, br in structure.items()}

    def bracket(a, b):
        return table.get((a, b), {})

    def bracket_elements(x, y):
        out: dict = {}
        for la, ca in x.items():
            for lb, cb in y.items():
                br = bracket(la, lb)
                if ca and cb and br:
                    axpy(out, br.items(), ca * cb)
        return out

    for a in labels:
        for b in labels:
            ab, ba = bracket(a, b), bracket(b, a)
            sign = -ONE if (parity[a] and parity[b]) else ONE
            for k in set(ab) | set(ba):
                if ab.get(k, ZERO) + sign * ba.get(k, ZERO) != 0:
                    raise SupvarError(f"super-antisymmetry fails on {a}, {b}")
    for a in labels:
        for b in labels:
            ab = bracket(a, b)
            sgn = -ONE if (parity[a] and parity[b]) else ONE
            for c in labels:
                bc, ac = bracket(b, c), bracket(a, c)
                if not (ab or bc or ac):
                    continue
                lhs = bracket_elements({a: ONE}, bc)
                rhs = bracket_elements(ab, {c: ONE})
                axpy(rhs, bracket_elements({b: ONE}, ac).items(), sgn)
                if lhs != rhs:
                    raise SupvarError(f"graded Jacobi fails on {a}, {b}, {c}")


@pytest.mark.parametrize("m,n", [(1, 1), (2, 1), (1, 2), (2, 2), (3, 2)])
def test_axiom_check_agrees_with_reference_on_gl(m, n):
    for g in (gl_superalgebra(m, n), gl_even_subalgebra(m, n)):
        assert all(type(v) is int for br in g.structure.values() for v in br.values())
        reference_check_axioms(g.labels, g.parity, g.structure)
        as_fractions = {pair: {k: Fraction(v) for k, v in br.items()}
                        for pair, br in g.structure.items()}
        with pytest.raises(SupvarError, match="must be nonzero ints"):
            LieSuperalgebraData(g.name, g.labels, g.parity, as_fractions,
                                g.weight_of, g.z_degree, m, n)


def corrupted_tables(g):
    """Broken copies of g.structure, each named by how it was broken.

    For each pair a < b: one constant negated in both (a,b) and (b,a), so only
    Jacobi can fail; one term of a two-term bracket dropped in both orders;
    the entry (a,b) deleted while (b,a) stays; a term added to (a,b) alone;
    and a term added to both orders so that antisymmetry still holds.  On a commuting pair the last kind makes [a,b]
    nonzero while [a,c] = [b,c] = 0 for many c, so a check that skipped the
    supports of the terms of [a,b] would miss or misplace the failure.
    """
    for i, a in enumerate(g.labels):
        for b in g.labels[i + 1:]:
            ab, ba = g.bracket(a, b), g.bracket(b, a)
            for k in ab:
                yield ("negate", a, b, k), {
                    **g.structure, (a, b): {**ab, k: -ab[k]}, (b, a): {**ba, k: -ba[k]}}
                if len(ab) == 2:
                    yield ("drop", a, b, k), {
                        **g.structure,
                        (a, b): {j: v for j, v in ab.items() if j != k},
                        (b, a): {j: v for j, v in ba.items() if j != k}}
            if ab:
                yield ("lose", a, b), {p: br for p, br in g.structure.items() if p != (a, b)}
            k = next(lab for lab in g.labels if lab not in ab)
            yield ("add", a, b, k), {**g.structure, (a, b): {**ab, k: 1}}
            sign = -1 if (g.parity[a] and g.parity[b]) else 1
            yield ("grow", a, b, k), {
                **g.structure, (a, b): {**ab, k: 1}, (b, a): {**ba, k: -sign}}


@pytest.mark.parametrize("m,n", [(2, 1), (2, 2)])
def test_axiom_check_rejects_what_the_reference_rejects(m, n):
    g = gl_superalgebra(m, n)
    kinds = set()
    for how, structure in corrupted_tables(g):
        with pytest.raises(SupvarError) as ref:
            reference_check_axioms(g.labels, g.parity, structure)
        with pytest.raises(SupvarError) as new:
            LieSuperalgebraData("broken", g.labels, g.parity, structure,
                                g.weight_of, g.z_degree, m, n)
        assert str(new.value) == str(ref.value), how
        kinds.add((how[0], str(ref.value).split(" fails")[0]))
    assert kinds == {("negate", "graded Jacobi"), ("drop", "graded Jacobi"),
                     ("lose", "super-antisymmetry"), ("add", "super-antisymmetry"),
                     ("grow", "graded Jacobi")}


def test_even_subalgebra_is_closed():
    g0 = gl_even_subalgebra(2, 2)
    assert all(g0.parity[lab] == 0 for lab in g0.labels)
    assert len(g0.labels) == 8


@pytest.mark.parametrize("m,n", [(1, 1), (2, 1), (3, 3)])
def test_even_subalgebra_shares_the_gl_table(m, n):
    g, g0 = gl_superalgebra(m, n), gl_even_subalgebra(m, n)
    assert g0.structure is g.structure
    assert g0.weight_of is g.weight_of
    assert g0.z_degree is g.z_degree
    assert g0.labels == tuple(g.even_labels())
    assert g0.name == f"gl({m})+gl({n})"


def test_label_set_not_closed_under_the_bracket_is_rejected():
    g = gl_superalgebra(2, 1)
    labels = [("E", 1, 2), ("E", 2, 1)]  # [E12, E21] = E11 - E22
    with pytest.raises(SupvarError, match="leaves the labels"):
        LieSuperalgebraData("open", labels, g.parity, g.structure, g.weight_of, g.z_degree, 2, 1)


@pytest.mark.parametrize("table", ["weight_of", "z_degree"])
def test_label_without_weight_or_z_degree_is_rejected(table):
    g = gl_superalgebra(1, 1)
    tables = {"weight_of": dict(g.weight_of), "z_degree": dict(g.z_degree)}
    del tables[table][("E", 1, 2)]
    with pytest.raises(SupvarError, match="no recorded weight or z-degree"):
        LieSuperalgebraData("unrecorded", g.labels, g.parity, g.structure,
                            tables["weight_of"], tables["z_degree"], 1, 1)


@pytest.mark.parametrize("bad", [Fraction(1, 2), 0], ids=["half", "zero"])
def test_structure_constant_that_is_not_a_nonzero_int_is_rejected(bad):
    g = gl_superalgebra(1, 1)
    key = (("E", 1, 1), ("E", 1, 2))
    structure = {**g.structure, key: {("E", 1, 2): bad}}
    with pytest.raises(SupvarError, match="must be nonzero ints"):
        LieSuperalgebraData("bad-constant", g.labels, g.parity, structure,
                            g.weight_of, g.z_degree, 1, 1)


def test_detecting_generators():
    d = detecting_subalgebra(1, 1)
    assert d.odd_basis == ({("E", 1, 2): ONE, ("E", 2, 1): ONE},)
    d = detecting_subalgebra(2, 2)
    assert d.r == 2
    assert d.odd_basis[0] == {("E", 2, 3): ONE, ("E", 3, 2): ONE}
    assert d.odd_basis[1] == {("E", 1, 4): ONE, ("E", 4, 1): ONE}
    d = detecting_subalgebra(2, 1)
    assert d.r == 1
    assert d.odd_basis[0] == {("E", 2, 3): ONE, ("E", 3, 2): ONE}


def test_detecting_squares_are_diagonal():
    for m, n in [(1, 1), (2, 1), (2, 2), (3, 2)]:
        d = detecting_subalgebra(m, n)
        g = gl_superalgebra(m, n)
        for t, x in enumerate(d.odd_basis):
            sq = d.squares[t]
            assert all(a == b for (_, a, b) in sq)
            half = {k: Fraction(v, 2) for k, v in g.bracket_elements(x, x).items()}
            assert half == sq
        for s in range(d.r):
            for t in range(d.r):
                if s != t:
                    assert g.bracket_elements(d.odd_basis[s], d.odd_basis[t]) == {}


def test_detecting_checks_are_invariants(monkeypatch):
    # the generators are fixed elements of gl(m|n), so a failing check is a bug
    class Skewed:
        def bracket_elements(self, x, y):
            return {("E", 1, 2): 1}

    monkeypatch.setattr(supvar.algebra, "gl_superalgebra", lambda m, n: Skewed())
    with pytest.raises(InvariantBroken, match="supercommute"):
        DetectingSubalgebra(2, 2)
    with pytest.raises(InvariantBroken, match="not diagonal"):
        DetectingSubalgebra(2, 1)


def test_element_matrix():
    # x_1 and x_1^2 of gl(2|2) as 4 x 4 matrices of the defining representation
    def element_matrix(element):
        rows = [[ZERO] * 4 for _ in range(4)]
        for (_, a, b), coeff in element.items():
            rows[a - 1][b - 1] += coeff
        return rows

    d = detecting_subalgebra(2, 2)
    x1 = element_matrix(d.odd_basis[0])
    assert x1[1][2] == 1 and x1[2][1] == 1
    assert sum(1 for row in x1 for v in row if v != 0) == 2
    square = [[sum(a * b for a, b in zip(row, col)) for col in zip(*x1)] for row in x1]
    assert square == element_matrix(d.squares[0])
