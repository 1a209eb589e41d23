"""Property tests for tensor, dual, parity shift and direct sum.

Modules are drawn from small gl(1|1), gl(2|1), gl(2|2) and gl(3|1) Kac and
simple modules; K(0,-2,-2|2) on gl(3|1) and its simple head store their ints
over den 2 and 4, so the lcm rules of tensor and direct_sum are exercised.
tensor and dual fill a label's columns on first read; they are compared with
eager references over every label.
"""

from collections import Counter
from functools import lru_cache
from math import lcm

from hypothesis import given, settings
from hypothesis import strategies as st

from supvar.algebra import gl_superalgebra
from supvar.linalg import axpy
from supvar.modules import (
    SuperModuleRep,
    direct_sum,
    dual,
    kac_module,
    parity_shift,
    simple_module,
    tensor,
    trivial_module,
    verify_rep,
)
from supvar.roots import parse_weight
from views import fraction_actions

POOL = {
    (1, 1): ["trivial", "kac:0|0", "simple:0|0", "kac:1|0", "simple:1|-1", "kac:2|1"],
    (2, 1): ["trivial", "kac:0,0|0", "simple:1,0|0", "kac:1,0|-1", "simple:1,1|-2"],
    (2, 2): ["trivial", "kac:0,0|0,0", "simple:1,0|0,0", "simple:1,0|0,-1", "simple:0,0|0,-1"],
    (3, 1): ["trivial", "kac:0,-2,-2|2", "simple:0,-2,-2|2"],
}
MAX_TENSOR_DIM = 500


@lru_cache(maxsize=None)
def build(m, n, spec):
    if spec == "trivial":
        return trivial_module(gl_superalgebra(m, n))
    kind, _, text = spec.partition(":")
    return (kac_module if kind == "kac" else simple_module)(parse_weight(m, n, text))


singles = st.sampled_from([(mn, spec) for mn, specs in POOL.items() for spec in specs])
# deferred: the pairs are filtered by building modules, which must happen
# when a test draws, so a faulty builder fails those tests, not collection
pairs = st.deferred(lambda: st.sampled_from([
    (mn, a, b) for mn, specs in POOL.items() for a in specs for b in specs
    if build(*mn, a).dim * build(*mn, b).dim <= MAX_TENSOR_DIM
]))


def weight_multiset(M) -> Counter:
    return Counter(w.coords for w in M.weights)


def assert_verified(M):
    ok, problems = verify_rep(M)
    assert ok, problems[:3]
    assert all(type(x) is int for cols in M.actions.values()
               for col in cols.values() for x in col.values())


@settings(max_examples=40, deadline=None)
@given(pairs)
def test_tensor_laws(case):
    mn, a, b = case
    M, N = build(*mn, a), build(*mn, b)
    T = tensor(M, N)
    assert_verified(T)
    assert (T.dim, T.superdimension) == (M.dim * N.dim, M.superdimension * N.superdimension)
    assert weight_multiset(T) == Counter(
        tuple(x + y for x, y in zip(u, v)) for u in weight_multiset(M).elements()
        for v in weight_multiset(N).elements())
    # every column against a Fraction reference built from the factors' views
    MF, NF, TF = fraction_actions(M), fraction_actions(N), fraction_actions(T)
    g = M.algebra
    for label in g.labels:
        for i in range(M.dim):
            sign = -1 if (g.parity[label] and M.parities[i]) else 1
            for j in range(N.dim):
                col = {r * N.dim + j: c for r, c in MF[label].get(i, {}).items()}
                axpy(col, ((i * N.dim + r, c) for r, c in NF[label].get(j, {}).items()), sign)
                assert TF[label].get(i * N.dim + j, {}) == col, (label, i, j)


@settings(max_examples=40, deadline=None)
@given(pairs)
def test_direct_sum_laws(case):
    mn, a, b = case
    M, N = build(*mn, a), build(*mn, b)
    S = direct_sum(M, N)
    assert_verified(S)
    assert (S.dim, S.superdimension) == (M.dim + N.dim, M.superdimension + N.superdimension)
    assert list(S.weights) == list(M.weights) + list(N.weights)
    SF, MF, NF = fraction_actions(S), fraction_actions(M), fraction_actions(N)
    for label in M.algebra.labels:
        shifted = {M.dim + j: {M.dim + i: c for i, c in col.items()}
                   for j, col in NF[label].items()}
        assert SF[label] == {**MF[label], **shifted}


@settings(max_examples=25, deadline=None)
@given(singles)
def test_dual_and_parity_shift_laws(case):
    mn, spec = case
    M = build(*mn, spec)
    D, P = dual(M), parity_shift(M)
    for X in (D, P):
        assert_verified(X)
        assert X.dim == M.dim
    assert D.superdimension == M.superdimension
    assert P.superdimension == -M.superdimension
    assert weight_multiset(D) == Counter(tuple(-x for x in w) for w in weight_multiset(M).elements())
    assert weight_multiset(P) == weight_multiset(M)
    MF = fraction_actions(M)
    assert fraction_actions(parity_shift(P)) == MF
    assert parity_shift(P).parities == M.parities
    # M** is M through the canonical u -> (-1)^{|u|} u, which negates the odd actions
    DD = fraction_actions(dual(D))
    for label, cols in MF.items():
        assert DD[label] == {j: {i: c * (-1) ** (M.parities[i] + M.parities[j])
                                 for i, c in col.items()} for j, col in cols.items()}


def eager_tensor_actions(M, N) -> dict:
    """Every label's columns of M tensor N, summed up front entry by entry."""
    dn = N.dim
    den = lcm(M.den, N.den)
    fm, fn = den // M.den, den // N.den
    actions = {}
    for label in M.algebra.labels:
        m_cols, n_cols = M.actions.get(label, {}), N.actions.get(label, {})
        cols = {}
        for i in range(M.dim):
            sign = -fn if (M.algebra.parity[label] and M.parities[i]) else fn
            for j in range(dn):
                col = {r * dn + j: fm * c for r, c in m_cols.get(i, {}).items()}
                axpy(col, ((i * dn + r, c) for r, c in n_cols.get(j, {}).items()), sign)
                if col:
                    cols[i * dn + j] = col
        actions[label] = cols
    return actions


def eager_dual_actions(M) -> dict:
    """Every label's columns of the dual of M, transposed up front."""
    actions = {}
    for label in M.algebra.labels:
        cols = {}
        for j, entries in M.actions.get(label, {}).items():
            for k, c in entries.items():
                cols.setdefault(k, {})[j] = c if (M.algebra.parity[label] and M.parities[k]) else -c
        actions[label] = cols
    return actions


def with_diagonal_entry(M, label, i, c):
    """M with c added at (i, i) of the non-Cartan label: not a representation, but
    in a tensor product of two such modules the M and N parts of a column share
    a key off the Cartan labels."""
    actions = {lab: {j: dict(col) for j, col in M.actions[lab].items()} for lab in M.algebra.labels}
    col = actions[label].setdefault(i, {})
    col[i] = col.get(i, 0) + c
    return SuperModuleRep(M.algebra, M.parities, M.weights, actions, den=M.den)


def test_lazy_tensor_and_dual_match_eager_references():
    K = build(3, 1, "kac:0,-2,-2|2")
    L = build(3, 1, "simple:0,-2,-2|2")
    assert (K.den, L.den) == (2, 4)
    B = build(2, 1, "kac:1,0|-1")
    C1 = with_diagonal_entry(B, ("E", 1, 3), 0, 3)   # an odd label
    C2 = with_diagonal_entry(B, ("E", 1, 2), 1, -2)  # an even label; cancels in C2 @ C2*
    DK, DL, DC2 = dual(K), dual(L), dual(C2)
    for X, D in ((K, DK), (L, DL), (C2, DC2)):
        assert not D.actions._built
        assert dict(D.actions) == eager_dual_actions(X)
    collisions = 0
    for M, N in [(DK, L), (L, DK), (K, K), (DL, L), (C1, C1), (C2, C1), (C2, DC2)]:
        T = tensor(M, N)
        assert not T.actions._built
        expected = eager_tensor_actions(M, N)
        # read labels in reverse, one at a time: each is built on its own read
        for k, label in enumerate(reversed(M.algebra.labels), 1):
            assert T.actions[label] == expected[label], label
            assert len(T.actions._built) == k
        collisions += sum(1 for label in M.algebra.labels if label[1] != label[2]
                          for i in range(M.dim) if i in M.actions[label].get(i, {})
                          for j in range(N.dim) if j in N.actions[label].get(j, {}))
    # off the Cartan labels, keys collide in C1 @ C1 on E13 and in C2 @ C2* on E12
    assert collisions == 2
