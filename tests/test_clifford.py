from fractions import Fraction

import pytest

from supvar.algebra import detecting_subalgebra, gl_superalgebra
from supvar.clifford import (
    classify_block,
    divisibility_check,
    form_from_subalgebra,
    odd_form_data,
    simple_divisibility,
)
from supvar.errors import AssumptionViolated, BadCodimension
from supvar.linalg import ONE
from supvar.roots import parse_weight


def test_classification_examples():
    form = odd_form_data([[0] * 3 for _ in range(3)])
    assert (form.z, form.n, form.n_tilde) == (3, 0, 0)
    cls = classify_block(form)
    assert (cls.simple_dim, cls.simple_type, cls.projective_dim) == (1, "M", 8)
    assert not cls.simple_superdim_zero and cls.projective_superdim_zero

    form = odd_form_data([[2]])
    assert (form.z, form.n, form.n_tilde) == (0, 1, 1)
    cls = classify_block(form)
    assert (cls.simple_dim, cls.simple_type, cls.projective_dim) == (2, "Q", 2)
    assert cls.simple_superdim_zero

    form = odd_form_data([[1, 0], [0, 1]])
    cls = classify_block(form)
    assert (cls.simple_dim, cls.simple_type, cls.projective_dim) == (2, "M", 2)


def test_type_alternates_with_rank_parity():
    for c1 in range(1, 6):
        for n in range(c1 + 1):
            gram = [[1 if (i == j and i < n) else 0 for j in range(c1)] for i in range(c1)]
            form = odd_form_data(gram)
            assert form.n == n and form.z == c1 - n
            cls = classify_block(form)
            assert cls.simple_type == ("M" if n % 2 == 0 else "Q")
            assert cls.simple_dim == 2**form.n_tilde


def test_projective_accounting():
    # the projective cover dimension divides the induced module dimension 2^dim_c1
    for c1 in range(1, 6):
        for n in range(c1 + 1):
            gram = [[1 if (i == j and i < n) else 0 for j in range(c1)] for i in range(c1)]
            cls = classify_block(odd_form_data(gram))
            total = 2**c1
            assert total % cls.projective_dim == 0
            quotient = total // cls.projective_dim
            assert quotient >= 1


def test_gram_must_be_symmetric():
    with pytest.raises(AssumptionViolated, match="must be symmetric"):
        odd_form_data([[0, 1], [0, 0]])


def test_gram_rows_must_be_square():
    for rows in ([[1, 0], [0]], [[1, 0]], [[1], [0]], [[]]):
        with pytest.raises(AssumptionViolated, match="must be square"):
            odd_form_data(rows)


def test_gram_entries_are_read_exactly():
    with pytest.raises(TypeError):
        odd_form_data([[0.5]])
    form = odd_form_data([["1/2", "1/3"], [Fraction(1, 3), "2/9"]])
    assert form.gram == ((Fraction(1, 2), Fraction(1, 3)), (Fraction(1, 3), Fraction(2, 9)))
    assert (form.n, form.z) == (1, 1)
    form = odd_form_data([])
    assert (form.dim_c1, form.n, form.z, form.gram) == (0, 0, 0, ())


def test_form_from_detecting_generators():
    g = gl_superalgebra(1, 1)
    d = detecting_subalgebra(1, 1)
    form = form_from_subalgebra(g, d.odd_basis, parse_weight(1, 1, "0|0"))
    assert form.gram == ((0,),)
    assert (form.z, form.n) == (1, 0)
    form = form_from_subalgebra(g, d.odd_basis, parse_weight(1, 1, "1|0"))
    assert form.gram == ((2,),)
    assert form.n == 1

    g22 = gl_superalgebra(2, 2)
    d22 = detecting_subalgebra(2, 2)
    form = form_from_subalgebra(g22, d22.odd_basis, parse_weight(2, 2, "0,0|0,0"))
    assert not any(any(row) for row in form.gram) and form.z == 2


def test_form_chi_variants():
    g = gl_superalgebra(1, 1)
    d = detecting_subalgebra(1, 1)
    chi_dict = {("E", 1, 1): ONE, ("E", 2, 2): Fraction(0)}
    form = form_from_subalgebra(g, d.odd_basis, chi_dict)
    assert form.gram == ((2,),)
    form = form_from_subalgebra(
        g, d.odd_basis, lambda elem: sum(elem.values(), Fraction(0))
    )
    assert form.gram == ((4,),)  # trace of 2(E11+E22)


def test_form_rejects_bad_subalgebras():
    g = gl_superalgebra(2, 1)
    x = {("E", 2, 3): ONE, ("E", 3, 2): ONE}
    y = {("E", 1, 3): ONE, ("E", 3, 1): ONE}
    with pytest.raises(AssumptionViolated):
        form_from_subalgebra(g, [x, y], parse_weight(2, 1, "0,0|0"))
    with pytest.raises(AssumptionViolated):
        form_from_subalgebra(g, [{("E", 1, 1): ONE}], parse_weight(2, 1, "0,0|0"))


def test_divisibility_check():
    assert divisibility_check(2, 0, 0, 1).passed
    assert divisibility_check(16, 0, 0, 2).passed
    rep = divisibility_check(3, 3, 0, 2)
    assert not rep.passed and not rep.divides and not rep.superdim_ok
    assert rep.codim == 2 and rep.divisor == 2
    with pytest.raises(BadCodimension):
        divisibility_check(4, 0, 3, 2)


def test_divisibility_zero_codimension_is_vacuous():
    rep = divisibility_check(7, 5, 2, 2)
    assert rep.passed and rep.divisor == 1


def test_simple_divisibility_examples():
    rep = simple_divisibility(parse_weight(1, 1, "1|0"))
    assert (rep.r, rep.atyp, rep.dim, rep.superdim) == (1, 0, 2, 0)
    assert rep.passed
    rep = simple_divisibility(parse_weight(1, 1, "0|0"))
    assert (rep.r, rep.atyp, rep.dim, rep.superdim) == (1, 1, 1, 1)
    assert rep.passed
    rep = simple_divisibility(parse_weight(2, 2, "0,0|0,0"))
    assert (rep.r, rep.atyp, rep.dim, rep.superdim) == (2, 2, 1, 1)
    assert rep.passed
