import pytest

from supvar.algebra import (
    LieSuperalgebraData,
    detecting_subalgebra,
    element_matrix,
    gl_even_subalgebra,
    gl_superalgebra,
)
from supvar.errors import SupvarError
from supvar.linalg import ONE


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
    labels = [("E", 1, 1), ("E", 1, 2)]
    parity = {lab: 0 for lab in labels}
    structure = {(("E", 1, 1), ("E", 1, 2)): {("E", 1, 2): ONE}}  # missing the flip
    with pytest.raises(SupvarError):
        LieSuperalgebraData("broken", labels, parity, structure)


def test_even_subalgebra_is_closed():
    g0 = gl_even_subalgebra(2, 2)
    assert all(g0.parity[lab] == 0 for lab in g0.labels)
    assert len(g0.labels) == 8


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
            half = {k: v / 2 for k, v in g.bracket_elements(x, x).items()}
            assert half == sq
        for s in range(d.r):
            for t in range(d.r):
                if s != t:
                    assert g.bracket_elements(d.odd_basis[s], d.odd_basis[t]) == {}


def test_element_matrix():
    d = detecting_subalgebra(2, 2)
    x1 = d.matrix(1)
    assert x1.entries[1][2] == 1 and x1.entries[2][1] == 1
    assert sum(1 for row in x1.entries for v in row if v != 0) == 2
    sq = element_matrix(2, 2, d.squares[0])
    square = [[sum(a * b for a, b in zip(row, col)) for col in zip(*x1.entries)]
              for row in x1.entries]
    assert tuple(map(tuple, square)) == sq.entries
