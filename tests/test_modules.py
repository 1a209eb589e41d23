import json
from fractions import Fraction

import pytest

from supvar.algebra import gl_superalgebra
from supvar.errors import AlgebraMismatch, ConstructionOverflow, NotDominant
from supvar.linalg import ONE, ZERO
from supvar.modules import (
    L0_module,
    SuperModuleRep,
    contravariant_form,
    direct_sum,
    dual,
    dump_module,
    kac_module,
    parity_shift,
    simple_module,
    tensor,
    trivial_module,
    verify_rep,
)
from supvar.roots import dim_L0, format_weight, parse_weight


def test_L0_examples():
    M = L0_module(parse_weight(2, 1, "0,0|0"))
    assert M.dim == 1 and M.superdimension == 1
    M = L0_module(parse_weight(2, 1, "1,0|0"))
    assert M.dim == 2
    assert sorted(format_weight(w) for w in M.weights) == ["0,1|0", "1,0|0"]
    M = L0_module(parse_weight(2, 2, "1,1|0,0"))
    assert M.dim == 1


def test_L0_matches_weyl_dimension():
    for text, mn in [("2,0|0", (2, 1)), ("2,1|1", (2, 1)), ("1,0|1,0", (2, 2)),
                     ("2,-1|0,0", (2, 2)), ("3|2", (1, 1))]:
        lam = parse_weight(*mn, text)
        assert L0_module(lam).dim == dim_L0(lam)


def test_L0_negative_weights_via_determinant_twist():
    M = L0_module(parse_weight(2, 1, "0,-2|-1"))
    assert M.dim == dim_L0(parse_weight(2, 1, "0,-2|-1")) == 3
    assert verify_rep(M)[0]
    assert format_weight(M.weights[0]) == "0,-2|-1"


def test_L0_rejects_non_dominant():
    with pytest.raises(NotDominant):
        L0_module(parse_weight(2, 1, "0,1|0"))


def test_kac_dimensions():
    assert kac_module(parse_weight(1, 1, "0|0")).dim == 2
    assert kac_module(parse_weight(2, 1, "1,0|0")).dim == 8
    assert kac_module(parse_weight(2, 2, "0,0|0,0")).dim == 16
    lam = parse_weight(2, 2, "2,1|1,0")
    K = kac_module(lam)
    assert K.dim == 16 * dim_L0(lam)
    assert K.superdimension == 0


def test_kac_superdimension_vanishes():
    for text, mn in [("0|0", (1, 1)), ("1,0|0", (2, 1)), ("1,0|1,0", (2, 2))]:
        assert kac_module(parse_weight(*mn, text)).superdimension == 0


def test_kac_budget_guard():
    with pytest.raises(ConstructionOverflow):
        kac_module(parse_weight(2, 2, "0,0|0,0"), budget=10)


def test_contravariant_form_values():
    K = kac_module(parse_weight(1, 1, "0|0"))
    G = contravariant_form(K, verify=True)
    assert G.entries[0][0] == 1  # highest weight vector is normalized
    assert G.entries[1][1] == 0  # y.v pairs to zero at weight zero
    K = kac_module(parse_weight(1, 1, "1|0"))
    G = contravariant_form(K, verify=True)
    assert G.entries[0][0] == 1
    assert G.entries[1][1] == 1
    K = kac_module(parse_weight(2, 1, "2,1|1"))
    G = contravariant_form(K, verify=True)
    assert G.entries[0][0] == 1
    assert G == G.transpose()


def test_contravariant_form_adjointness_beyond_auto_limit():
    # force the full adjointness sweep on a module above the automatic cutoff
    K = kac_module(parse_weight(2, 2, "2,0|0,-1"))
    assert K.dim == 96
    G = contravariant_form(K, verify=True)
    assert G == G.transpose()


def test_simple_module_dimensions():
    assert simple_module(parse_weight(1, 1, "0|0")).dim == 1
    assert simple_module(parse_weight(1, 1, "1|0")).dim == 2
    assert simple_module(parse_weight(2, 2, "0,0|0,0")).dim == 1
    # the natural representation of gl(2|1)
    assert simple_module(parse_weight(2, 1, "1,0|0")).dim == 3


def test_simple_typical_weight_keeps_kac_dimension():
    # atypicality zero: the form is nondegenerate and nothing is quotiented
    lam = parse_weight(1, 1, "2|1")
    assert simple_module(lam).dim == kac_module(lam).dim == 2


def test_radical_ignores_contravariant_rescaling():
    for text in ["1,0|0", "0,0|0", "2,1|0"]:
        lam = parse_weight(2, 1, text)
        a = simple_module(lam, verify_form=True)
        b = simple_module(lam, verify_form=True, gram_scale=Fraction(3))
        assert a.dim == b.dim
        for label in a.algebra.labels:
            assert a.actions[label] == b.actions[label]


def test_atypical_gl11_simples_are_one_dimensional():
    # weights (a|-a) are atypical and their simple heads are characters
    for a in range(-2, 3):
        assert simple_module(parse_weight(1, 1, f"{a}|{-a}")).dim == 1


def test_simple_has_no_singular_vectors():
    # a cyclic highest weight module with no singular weight vector below the
    # top is simple, so this is a direct simplicity certificate
    for text, mn in [("0|0", (1, 1)), ("2|-2", (1, 1)), ("1,0|0", (2, 1)),
                     ("1,1|-2", (2, 1)), ("0,0|0,0", (2, 2)), ("1,0|0,-1", (2, 2))]:
        lam = parse_weight(*mn, text)
        L = simple_module(lam)
        g = L.algebra
        top = lam.coords
        raisings = [lab for lab in g.labels if lab[1] < lab[2]]
        below = [i for i in range(L.dim) if L.weights[i].coords != top]
        if not below:
            continue
        conditions = []
        for i in below:
            col = {}
            for lab in raisings:
                for r, c in L.action_column(lab, i).items():
                    col[(lab, r)] = c
            conditions.append(col)
        # simultaneous kernel must be trivial
        from supvar.linalg import RationalMatrix, kernel_basis

        keys = sorted({k for col in conditions for k in col}, key=repr)
        rows = [[col.get(k, ZERO) for col in conditions] for k in keys]
        assert kernel_basis(RationalMatrix(rows)) == []


def test_verify_rep_constructed_modules():
    mods = [
        trivial_module(gl_superalgebra(1, 1)),
        L0_module(parse_weight(2, 1, "2,0|0")),
        kac_module(parse_weight(1, 1, "0|0")),
        kac_module(parse_weight(2, 1, "1,0|-1")),
        simple_module(parse_weight(2, 1, "1,0|0")),
        simple_module(parse_weight(2, 2, "1,0|0,-1")),
    ]
    for M in mods:
        ok, problems = verify_rep(M)
        assert ok, problems


def test_verify_rep_detects_mutation():
    K = kac_module(parse_weight(1, 1, "0|0"))
    actions = {lab: {i: dict(col) for i, col in cols.items()} for lab, cols in K.actions.items()}
    label = ("E", 2, 1)
    col = actions[label].setdefault(0, {})
    col[0] = col.get(0, ZERO) + ONE
    broken = SuperModuleRep(K.algebra, K.parities, K.weights, actions)
    ok, problems = verify_rep(broken)
    assert not ok and problems


def test_tensor_dual_parity():
    g = gl_superalgebra(1, 1)
    C = trivial_module(g)
    D = dual(C)
    assert D.dim == 1 and D.superdimension == 1
    assert all(not cols for cols in D.actions.values())
    L = simple_module(parse_weight(1, 1, "1|0"))
    T = tensor(L, dual(L))
    assert T.dim == 4
    assert verify_rep(T)[0]
    P = parity_shift(L)
    assert P.superdimension == -L.superdimension
    assert verify_rep(P)[0]
    assert verify_rep(dual(L))[0]
    PP = parity_shift(P)
    for label in g.labels:
        assert PP.actions[label] == L.actions[label]
    assert PP.parities == L.parities


def test_algebra_mismatch():
    with pytest.raises(AlgebraMismatch):
        tensor(trivial_module(gl_superalgebra(1, 1)), trivial_module(gl_superalgebra(2, 1)))


def test_direct_sum():
    g = gl_superalgebra(1, 1)
    K = kac_module(parse_weight(1, 1, "0|0"))
    S = direct_sum(K, trivial_module(g))
    assert S.dim == 3
    assert verify_rep(S)[0]
    assert S.superdimension == K.superdimension + 1


def test_dump_is_deterministic_and_exact():
    K = kac_module(parse_weight(1, 1, "1|0"))
    d1 = json.dumps(dump_module(K), sort_keys=True)
    d2 = json.dumps(dump_module(kac_module(parse_weight(1, 1, "1|0"))), sort_keys=True)
    assert d1 == d2
    record = dump_module(K)
    assert record["dim"] == 2
    assert record["actions"]["E[2,1]"][1][0] == "1"
    assert all(p in (0, 1) for p in (b["parity"] for b in record["basis"]))
