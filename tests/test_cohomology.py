from collections import Counter
from functools import lru_cache
from itertools import combinations_with_replacement, permutations

import pytest

from supvar import cohomology
from supvar.algebra import LieSuperalgebraData, gl_even_subalgebra, gl_superalgebra
from supvar.cohomology import (
    _coadjoint_table,
    _derive_on_monomial,
    _differential_columns,
    _weight_slice,
    build_complex,
    cohomology_dims,
    ext_dims,
    kac_ext_dims,
    vanishing_bound,
)
from supvar.config import RunConfig
from supvar.errors import (ConstructionOverflow, NotDominant, ShapeMismatch,
                           SignConventionBroken, Unsupported)
from supvar.linalg import ONE, axpy, column_kernel, span_dim
from supvar.modules import (
    L0_module,
    SuperModuleRep,
    dual,
    kac_module,
    simple_module,
    tensor,
    trivial_module,
)
from supvar.roots import parse_weight, weight, zero_weight
from views import fraction_actions


# ---------------------------------------------------------------------------
# the tuple-keyed cochain builders, kept as the reference for the int-keyed ones


def reference_raising_images(g, M, gens, keys, vecs):
    """_raising_images with rows keyed (label, (monomial, module index))."""
    raisings = [lab for lab in g.even_labels() if lab[2] == lab[1] + 1]
    table = _coadjoint_table(g, gens, raisings)
    acts = [(a, M.actions.get(a, {})) for a in raisings]
    derivations: dict = {}
    images = []
    for vec in vecs:
        out: dict = {}
        for pos, coeff in vec.items():
            mono, i = keys[pos]
            derived_by = derivations.get(mono)
            if derived_by is None:
                derived_by = derivations[mono] = [_derive_on_monomial(table[a], mono)
                                                  for a in raisings]
            for (a, cols), derived in zip(acts, derived_by):
                axpy(out, (((a, (new_mono, i)), c) for new_mono, c in derived.items()),
                     M.den * coeff)
                axpy(out, (((a, (mono, r)), c) for r, c in cols.get(i, {}).items()), coeff)
        images.append(out)
    return images


def reference_differential_columns(M, gens, keys, next_keys, vecs):
    """_differential_columns through a tuple-keyed image per slice position."""
    next_pos = {key: k for k, key in enumerate(next_keys)}
    acting = [(e, cols) for e, cols in enumerate(M.actions.get(lab) for lab in gens) if cols]
    image_of: dict = {}
    columns = []
    for vec in vecs:
        col: dict = {}
        for pos, coeff in vec.items():
            if pos not in image_of:
                mono, i = keys[pos]
                img: dict = {}
                for e, cols in acting:
                    column = cols.get(i)
                    if column:
                        new_mono = tuple(sorted(mono + (e,)))
                        axpy(img, (((new_mono, j), c) for j, c in column.items()), 1)
                assert next_pos.keys() >= img.keys()
                image_of[pos] = [(next_pos[key], c) for key, c in img.items()]
            axpy(col, image_of[pos], coeff)
        columns.append(col)
    return columns


def assert_complex_matches_reference(cx, budget=RunConfig.dimension_budget):
    """cx's bases and differentials equal the tuple-keyed builders', term for term.

    The reference builds each degree's basis from the unit vectors' raising
    images alone and maps it by the differential, so the comparison is of
    item lists, dict order included.
    """
    g, M, gens = cx.algebra, cx.module, cx.algebra.odd_labels()
    target = zero_weight(g.m, g.n)
    slices = [_weight_slice(g, M, gens, p, target, budget) for p in range(cx.p_max + 2)]
    assert [deg.keys for deg in cx.degrees] + [cx.top_keys] == [tuple(k) for k in slices]
    for p, deg in enumerate(cx.degrees):
        units = [{k: 1} for k in range(len(slices[p]))]
        basis = column_kernel(reference_raising_images(g, M, gens, slices[p], units))
        assert [list(v.items()) for v in deg.basis] == [list(v.items()) for v in basis], p
        images = reference_differential_columns(M, gens, slices[p], slices[p + 1], basis)
        assert ([list(c.items()) for c in cx.differentials[p]]
                == [list(c.items()) for c in images]), p


@pytest.fixture(autouse=True)
def complexes_match_reference(monkeypatch):
    """Every complex built in this module, directly or through cohomology_dims
    and ext_dims, is checked against the tuple-keyed reference."""
    true_build = cohomology.build_complex

    def checked(g, M, p_max, budget=RunConfig.dimension_budget):
        cx = true_build(g, M, p_max, budget)
        assert_complex_matches_reference(cx, budget)
        return cx

    monkeypatch.setattr(cohomology, "build_complex", checked)
    monkeypatch.setitem(globals(), "build_complex", checked)


def test_cochain_dimensions_trivial_coefficients():
    g = gl_superalgebra(1, 1)
    cx = build_complex(g, trivial_module(g), 5)
    assert cx.dims() == [1, 0, 1, 0, 1, 0]
    assert all(not col for cols in cx.differentials for col in cols)


def test_cochain_dimension_kac_coefficients():
    g = gl_superalgebra(1, 1)
    K0 = kac_module(parse_weight(1, 1, "0|0"))
    cx = build_complex(g, K0, 3)
    assert cx.dims()[0] == 1  # invariants Hom(C, K(0)) candidates at degree zero


def test_cohomology_hilbert_data():
    g = gl_superalgebra(1, 1)
    assert cohomology_dims(g, trivial_module(g), 4) == [1, 0, 1, 0, 1]
    g = gl_superalgebra(2, 1)
    assert cohomology_dims(g, trivial_module(g), 4) == [1, 0, 1, 0, 1]
    g = gl_superalgebra(2, 2)
    assert cohomology_dims(g, trivial_module(g), 4) == [1, 0, 1, 0, 2]


def test_cohomology_hilbert_series_to_degree_six():
    # invariant-ring Hilbert series: product over i <= r of 1/(1 - t^{2i})
    def series(r, pmax):
        coeffs = [1] + [0] * pmax
        for i in range(1, r + 1):
            for d in range(2 * i, pmax + 1):
                coeffs[d] += coeffs[d - 2 * i]
        return coeffs

    # r = 3 first differs from r = 2 in degree 6 (BKN I, arXiv:math/0609363);
    # gl(3|3) and gl(4|4) fit the default budget
    for m, n in [(1, 1), (2, 1), (2, 2), (3, 3), (4, 4)]:
        g = gl_superalgebra(m, n)
        assert cohomology_dims(g, trivial_module(g), 6) == series(min(m, n), 6)
    assert series(3, 6) == series(4, 6) == [1, 0, 1, 0, 2, 0, 3]
    g = gl_superalgebra(3, 3)
    assert cohomology_dims(g, trivial_module(g), 6, budget=100000) == series(3, 6)


@lru_cache(maxsize=None)
def _trivial_complex(m, n, p_max):
    g = gl_superalgebra(m, n)
    return build_complex(g, trivial_module(g), p_max)


def test_slice_budgets():
    cx = _trivial_complex(3, 3, 6)
    assert [len(deg.keys) for deg in cx.degrees] + [len(cx.top_keys)] == [
        1, 0, 9, 0, 63, 0, 339, 0]
    # degree 6 pairs 165 half-monomials of each side, over 4 x budget
    g = gl_superalgebra(3, 3)
    with pytest.raises(ConstructionOverflow, match="half-monomial table exceeds budget"):
        _weight_slice(g, trivial_module(g), g.odd_labels(), 6, zero_weight(3, 3), 40)
    assert len(_weight_slice(g, trivial_module(g), g.odd_labels(), 6, zero_weight(3, 3), 400)) == 339


def _reference_slice(g, M, gens, degree, target):
    """Every monomial of S^degree(gens*), kept when its weight plus a module
    weight is the target: the enumerate-then-filter slice."""
    gen_weights = [(-g.weight_of[lab]).coords for lab in gens]
    zero = (0,) * len(target.coords)
    buckets: dict = {}
    for i, w in enumerate(M.weights):
        buckets.setdefault((target - w).coords, []).append(i)
    keys = []
    for mono in combinations_with_replacement(range(len(gens)), degree):
        w = tuple(map(sum, zip(zero, *[gen_weights[e] for e in mono])))
        keys.extend((mono, i) for i in buckets.get(w, ()))
    return keys


def _g1_labels(g):
    return [lab for lab in g.labels if g.z_degree.get(lab) == 1]


# the Ext questions of the complex-ext benchmark workload on gl(2|2):
# (Kac weight, coefficient kind, coefficient weight)
EXT_QUESTIONS = [((k, k, -k, -k), "kac", (k, k, -k, -k)) for k in (-1, 0, 1)] + [
    ((0, 0, 0, 0), "simple", (0, -1, 1, 0)), ((1, 1, -1, -1), "simple", (1, 0, 0, -1)),
    ((0, 0, 0, 0), "kac", (1, 1, -1, -1)), ((0, 0, 0, 0), "kac", (-1, -1, 1, 1)),
    ((1, 1, -1, -1), "kac", (0, 0, 0, 0)), ((-1, -1, 1, 1), "kac", (0, 0, 0, 0)),
    ((0, 0, 0, 0), "simple", (1, 0, 0, -1)), ((-1, -1, 1, 1), "simple", (1, 0, 0, -1)),
]


def test_weight_slice_matches_enumeration():
    budget = RunConfig.dimension_budget
    cases = []  # (g, M, gens, target, max degree)
    for m, n in [(1, 1), (2, 1), (2, 2), (3, 2), (3, 3)]:
        g = gl_superalgebra(m, n)
        cases.append((g, trivial_module(g), g.odd_labels(), zero_weight(m, n), 5))
    g = gl_superalgebra(2, 2)
    for lam_c, kind, mu_c in EXT_QUESTIONS:
        lam = weight(2, 2, lam_c)
        mu = weight(2, 2, mu_c)
        N = kac_module(mu) if kind == "kac" else simple_module(mu)
        # the full complex at p_max 2, and the layer route's g1-only slices
        cases.append((g, tensor(dual(kac_module(lam)), N), g.odd_labels(), zero_weight(2, 2), 3))
        cases.append((g, N, _g1_labels(g), lam, 3))
    lam = parse_weight(3, 1, "0,-2,-2|2")  # den 2
    K = kac_module(lam)
    g = gl_superalgebra(3, 1)
    cases.append((g, tensor(dual(K), K), g.odd_labels(), zero_weight(3, 1), 3))
    cases.append((g, K, _g1_labels(g), lam, 3))
    g = gl_superalgebra(1, 1)
    K0 = kac_module(parse_weight(1, 1, "0|0"))
    half = parse_weight(1, 1, "1/2|-1/2")  # non-integral: every slice is empty
    cases.append((g, K0, _g1_labels(g), half, 3))
    with pytest.raises(NotDominant):  # and no K(half) exists
        kac_ext_dims(half, K0, 3)
    nonempty = 0
    for g, M, gens, target, top in cases:
        for degree in range(top + 1):
            keys = _weight_slice(g, M, gens, degree, target, budget)
            assert keys == _reference_slice(g, M, gens, degree, target), (
                g.name, M.dim, str(target), degree)
            nonempty += bool(keys)
    assert nonempty > 50


def _sign(perm):
    inversions = sum(a > b for i, a in enumerate(perm) for b in perm[i + 1:])
    return -1 if inversions % 2 else 1


def _character_count(g, M, p):
    """dim (S^p(W*) tensor M)^{g0} = sum over w in S_m x S_n of sign(w) mult_p(rho - w rho).

    The multiplicity of the trivial g0-module, read off Weyl's character
    formula times the Weyl denominator; mult_p counts the pairs of a
    degree-p monomial in the duals of the odd labels and a weight of M by
    their total weight, the convolution of the monomial weight counts with M's
    weight multiset.  rho - w rho has first-block sum 0, while each g1*
    factor contributes -1, each g-1* factor +1 and a weight of M its own
    first-block sum s, so only monomials with (p + s)/2 g1* factors count.
    """
    m, n = g.m, g.n
    zero = (0,) * (m + n)
    sides = [[(-g.weight_of[lab]).coords for lab in g.odd_labels() if g.z_degree[lab] == z]
             for z in (1, -1)]

    @lru_cache(maxsize=None)
    def halves(side, k):
        return Counter(tuple(map(sum, zip(zero, *half)))
                       for half in combinations_with_replacement(sides[side], k))

    # (g-1* factor count, weight of a g1* half plus a weight of M) -> count
    up = Counter()
    for w in M.weights:
        k_up, odd = divmod(p + sum(w.first_block), 2)
        if odd or not 0 <= k_up <= p:
            continue
        for u, c in halves(0, int(k_up)).items():
            up[p - int(k_up), tuple(x + y for x, y in zip(u, w.coords))] += c
    rho = tuple(range(m, 0, -1)) + tuple(range(n, 0, -1))
    total = 0
    for p1 in permutations(range(m)):
        for p2 in permutations(range(n)):
            w_rho = tuple(rho[i] for i in p1) + tuple(rho[m + j] for j in p2)
            mu = tuple(a - b for a, b in zip(rho, w_rho))
            mult = sum(c * halves(1, k_down)[tuple(x - y for x, y in zip(mu, wu))]
                       for (k_down, wu), c in up.items())
            total += _sign(p1) * _sign(p2) * mult
    return total


@pytest.mark.parametrize("m, n, expected", [
    (2, 2, [1, 0, 1, 0, 2, 0, 2]),
    (3, 3, [1, 0, 1, 0, 2, 0, 3]),
    (4, 4, [1, 0, 1, 0, 2, 0, 3]),
])
def test_invariant_dims_match_character_count(m, n, expected):
    # independent of the raising-operator kernel: only weights are counted
    g = gl_superalgebra(m, n)
    cx = _trivial_complex(m, n, 6)
    counts = [_character_count(g, trivial_module(g), p) for p in range(7)]
    assert counts == [len(deg.basis) for deg in cx.degrees] == expected


@pytest.mark.parametrize("kac, p_max, expected", [
    (None, 3, [0, 2, 2, 4, 2]),
    ("0,0|0,0", 2, [1, 6, 14, 21]),
    ("-1,-1|1,1", 2, [0, 1, 2, 7]),
])
def test_invariant_dims_with_module_coefficients_match_character_count(kac, p_max, expected):
    # L(1,0|0,-1) of gl(2|2), or dual(K) tensor it; the last count is of
    # degree p_max+1, whose basis is not built
    g, L = _gl22_simple_l()
    M = L if kac is None else tensor(dual(kac_module(parse_weight(2, 2, kac))), L)
    cx = build_complex(g, M, p_max)
    counts = [_character_count(g, M, p) for p in range(p_max + 2)]
    assert counts[:-1] == [len(deg.basis) for deg in cx.degrees]
    assert counts == expected


def test_cohomology_kac_coefficients_and_dual():
    # the trivial module maps nowhere into K(0), but K(0) maps onto it,
    # so the dual carries the single invariant
    g = gl_superalgebra(1, 1)
    K0 = kac_module(parse_weight(1, 1, "0|0"))
    assert cohomology_dims(g, K0, 3) == [0, 0, 0, 0]
    assert cohomology_dims(g, dual(K0), 3) == [1, 0, 0, 0]


def test_ext_examples():
    g = gl_superalgebra(1, 1)
    C = trivial_module(g)
    assert ext_dims(C, C, 4).dims == (1, 0, 1, 0, 1)
    K0 = kac_module(parse_weight(1, 1, "0|0"))
    assert ext_dims(K0, C, 4).dims == (1, 0, 0, 0, 0)
    assert ext_dims(C, C, 0).dims == (1,)


def test_kac_ext_examples():
    g = gl_superalgebra(1, 1)
    C = trivial_module(g)
    lam0 = parse_weight(1, 1, "0|0")
    lam1 = parse_weight(1, 1, "1|0")
    assert kac_ext_dims(lam0, C, 4).dims == (1, 0, 0, 0, 0)
    assert kac_ext_dims(lam1, C, 4).dims == (0, 0, 0, 0, 0)


def test_route_equivalence():
    lam0 = parse_weight(1, 1, "0|0")
    lam1 = parse_weight(1, 1, "1|0")
    g = gl_superalgebra(1, 1)
    mods = [trivial_module(g), kac_module(lam0), simple_module(lam1)]
    for lam in (lam0, lam1):
        K = kac_module(lam)
        for M in mods:
            assert ext_dims(K, M, 4).dims == kac_ext_dims(lam, M, 4).dims


def test_route_equivalence_gl21():
    g = gl_superalgebra(2, 1)
    C = trivial_module(g)
    for text in ["0,0|0", "1,0|0"]:
        lam = parse_weight(2, 1, text)
        K = kac_module(lam)
        full = ext_dims(K, C, 3).dims
        reduced = kac_ext_dims(lam, C, 3).dims
        assert full == reduced, (text, full, reduced)


def test_route_equivalence_gl32():
    g = gl_superalgebra(3, 2)
    C = trivial_module(g)
    for text, expected in [("0,0,0|0,0", (1, 0, 0)), ("0,0,-1|1,0", (0, 1, 0)),
                           ("0,-1,-1|1,1", (0, 0, 1))]:
        lam = parse_weight(3, 2, text)
        assert ext_dims(kac_module(lam), C, 2).dims == expected, text
        assert kac_ext_dims(lam, C, 2).dims == expected, text


def test_ext_over_action_denominator_two():
    # L0(0,-2,-2) of gl(3) acts with denominator 2, so K and its simple head
    # store ints over den > 1 and the cochain builders must scale by it
    lam = parse_weight(3, 1, "0,-2,-2|2")
    K, L = kac_module(lam), simple_module(lam)
    assert K.den == 2 and L.den > 1
    for N in (K, L):
        assert ext_dims(K, N, 1).dims == (1, 0)
        assert kac_ext_dims(lam, N, 1).dims == (1, 0)


def _next_keys(cx, p):
    """The slice keys d^p's columns are over: degree p+1's, or the top's."""
    return cx.degrees[p + 1].keys if p < cx.p_max else cx.top_keys


def test_stored_differential_is_the_true_one():
    # d is built from int actions over den 2 and from basis vectors scaled to
    # ints; the stored d^p must hold den times each invariant basis vector's
    # true image, here recomputed from the Fraction view in the ambient slice
    K = kac_module(parse_weight(3, 1, "0,-2,-2|2"))
    g, M = gl_superalgebra(3, 1), tensor(dual(K), K)
    cx = build_complex(g, M, 1)
    actions = fraction_actions(M)
    for p, cols in enumerate(cx.differentials):
        src = cx.degrees[p]
        pos = {key: k for k, key in enumerate(_next_keys(cx, p))}
        for vec, col in zip(src.basis, cols):
            image: dict = {}
            for k, c in vec.items():
                mono, i = src.keys[k]
                for e, lab in enumerate(g.odd_labels()):
                    key = tuple(sorted(mono + (e,)))
                    axpy(image, ((pos[key, j], x) for j, x in actions[lab].get(i, {}).items()), c)
            assert col == {k: M.den * x for k, x in image.items()} and image, p
            assert all(type(x) is int for x in col.values())


def _g0_condition_columns(g, M, odd_labels, keys):
    """Reference invariance conditions: per slice key, the stacked images
    under every even basis element, not just the simple raising operators."""
    table = _coadjoint_table(g, odd_labels, g.even_labels())
    actions = fraction_actions(M)
    columns = []
    for mono, i in keys:
        col: dict = {}
        for a in g.even_labels():
            axpy(col, (((a, (new_mono, i)), c)
                       for new_mono, c in _derive_on_monomial(table[a], mono).items()), ONE)
            axpy(col, (((a, (mono, j)), c) for j, c in actions[a].get(i, {}).items()), ONE)
        columns.append(col)
    return columns


def test_invariants_match_all_even_label_reference():
    cases = []
    for m, n in [(1, 1), (2, 1), (1, 2), (2, 2), (3, 2)]:
        g = gl_superalgebra(m, n)
        cases.append((g, trivial_module(g), 5))
    g = gl_superalgebra(2, 1)
    K0 = kac_module(parse_weight(2, 1, "0,0|0"))
    cases += [(g, K0, 5), (g, dual(K0), 5)]
    g = gl_superalgebra(2, 2)
    M = tensor(dual(kac_module(parse_weight(2, 2, "0,0|0,0"))),
               simple_module(parse_weight(2, 2, "1,0|0,-1")))
    cases.append((g, M, 3))
    K = kac_module(parse_weight(3, 1, "0,-2,-2|2"))  # den 2
    cases.append((gl_superalgebra(3, 1), tensor(dual(K), K), 2))
    for g, M, p_max in cases:
        cx = build_complex(g, M, p_max)
        assert any(cx.dims()[1:])
        for deg in cx.degrees:
            reference = column_kernel(_g0_condition_columns(g, M, g.odd_labels(), deg.keys))
            assert reference == list(deg.basis), (g.name, M.dim, p_max)


def test_vanishing_bounds():
    g = gl_superalgebra(1, 1)
    C = trivial_module(g)
    lam0 = parse_weight(1, 1, "0|0")
    lam1 = parse_weight(1, 1, "1|0")
    K0 = kac_module(lam0)
    assert vanishing_bound(lam0, C) == 1
    assert vanishing_bound(lam1, C) == 0
    # the only weight of K(0) reachable from lam0 by positive odd roots is lam0 itself
    assert vanishing_bound(lam0, K0) == 1
    L1 = simple_module(lam1)
    assert vanishing_bound(lam1, L1) == 1
    for lam, M in [(lam0, C), (lam0, K0), (lam1, C), (lam1, L1)]:
        bound = vanishing_bound(lam, M)
        dims = kac_ext_dims(lam, M, bound + 3).dims
        assert all(d == 0 for d in dims[bound:])


def test_vanishing_bound_rejects_a_weight_of_another_shape():
    # the module's weight spaces are keyed by bare coordinate tuples, which
    # map(sub, ...) would truncate silently; gl(3|2) and gl(2|3) weights even
    # have one length
    M = trivial_module(gl_superalgebra(3, 3))
    assert vanishing_bound(parse_weight(3, 3, "0,0,0|0,0,0"), M) == 1
    with pytest.raises(ShapeMismatch):
        vanishing_bound(parse_weight(2, 2, "0,0|0,0"), M)
    with pytest.raises(ShapeMismatch):
        vanishing_bound(parse_weight(3, 2, "0,0,0|0,0"),
                        kac_module(parse_weight(2, 3, "0,0|0,0,0")))


def test_ext_with_mixed_condition_keys():
    # the layer route stacks differential rows keyed ("d", r) with the int
    # raising rows into one kernel computation
    lam = parse_weight(2, 2, "-1,-1|1,1")
    K0 = kac_module(parse_weight(2, 2, "0,0|0,0"))
    assert kac_ext_dims(lam, K0, 1).dims == (0, 1)
    assert ext_dims(kac_module(lam), K0, 1).dims == (0, 1)


def test_euler_characteristic_independent_of_differential():
    g = gl_superalgebra(1, 1)
    K0 = kac_module(parse_weight(1, 1, "0|0"))
    for M in (trivial_module(g), K0, tensor(dual(K0), K0)):
        p_max = 4
        cx = build_complex(g, M, p_max)
        dims = cx.dims()
        h = cohomology_dims(g, M, p_max)
        # truncated Euler characteristics agree except for the boundary rank term
        from supvar.linalg import RationalMatrix

        ranks = []
        for p in range(p_max + 1):
            cols = cx.differentials[p]
            nz = sum(1 for c in cols if c)
            if dims[p] == 0 or nz == 0:
                ranks.append(0)
                continue
            rows = [[col.get(r, 0) for col in cols] for r in range(len(_next_keys(cx, p)))]
            from supvar.linalg import rank as mrank

            ranks.append(mrank(RationalMatrix(rows)))
        for p in range(p_max + 1):
            incoming = ranks[p - 1] if p else 0
            assert h[p] == dims[p] - ranks[p] - incoming


def test_larger_complex_runs_clean():
    g = gl_superalgebra(2, 1)
    K = kac_module(parse_weight(2, 1, "1,0|0"))
    dims = cohomology_dims(g, K, 2)
    assert len(dims) == 3
    assert all(d >= 0 for d in dims)


def test_kac_ext_needs_degree_one_part():
    # a module over the even part is not a representation of gl(1|1)
    g0 = gl_even_subalgebra(1, 1)
    from supvar.modules import trivial_module as tm

    with pytest.raises(Unsupported, match="not a representation of the given algebra"):
        kac_ext_dims(parse_weight(1, 1, "0|0"), tm(g0), 2)
    lam = parse_weight(2, 1, "1,0|0")
    with pytest.raises(Unsupported, match="not a representation of the given algebra"):
        kac_ext_dims(lam, L0_module(lam), 2)


def test_ext_dims_needs_modules_over_gl():
    # over the even part the complex of M* tensor N is the (g0, g0) one, whose
    # Ext^0 = 1 is no Ext over gl(m|n); either module over it is refused
    lam = parse_weight(2, 1, "1,0|0")
    L0, K = L0_module(lam), kac_module(lam)
    for M, N in [(L0, L0), (K, trivial_module(gl_even_subalgebra(2, 1))), (L0, K)]:
        with pytest.raises(Unsupported, match="not a representation of the given algebra"):
            ext_dims(M, N, 2)


def test_kac_ext_dims_rejects_a_module_of_another_shape():
    with pytest.raises(ShapeMismatch, match=r"weight over gl\(1\|1\), module over gl\(2\|2\)"):
        kac_ext_dims(weight(1, 1, (0, 0)), trivial_module(gl_superalgebra(2, 2)), 2)
    # gl(2|1) and gl(1|2) weights have one length
    with pytest.raises(ShapeMismatch):
        kac_ext_dims(weight(2, 1, (0, 0, 0)), trivial_module(gl_superalgebra(1, 2)), 2)


def test_complex_over_another_algebra_of_the_same_name_is_refused():
    # a module over the diagonal of gl(1|1) has no odd actions to build the
    # complex from, whatever the algebra is named; the labels decide
    g = gl_superalgebra(1, 1)
    h = LieSuperalgebraData("gl(1|1)", [("E", 1, 1), ("E", 2, 2)], 1, 1)
    with pytest.raises(Unsupported, match="not a representation of the given algebra"):
        build_complex(g, trivial_module(h), 3)
    renamed = LieSuperalgebraData("renamed", g.labels, 1, 1)
    assert cohomology_dims(g, trivial_module(renamed), 3) == [1, 0, 1, 0]


def test_cohomology_with_nonzero_differentials():
    # trivial coefficients give zero differentials; these do not
    g = gl_superalgebra(2, 2)
    for spec, dims, ranks in [(simple_module, [0, 1, 0, 2], [0, 1, 1, 1]),
                              (kac_module, [0, 0, 0, 0], [1, 2, 4, 5])]:
        M = spec(parse_weight(2, 2, "1,0|0,-1"))
        assert cohomology_dims(g, M, 3) == dims
        assert [span_dim(d) for d in build_complex(g, M, 3).differentials] == ranks


def _gl22_simple_l():
    """L(1,0|0,-1) on gl(2|2), whose complex has nonzero differentials."""
    g = gl_superalgebra(2, 2)
    return g, simple_module(parse_weight(2, 2, "1,0|0,-1"))


def test_build_complex_rejects_a_non_invariant_image():
    # doubling one odd label's action breaks the bracket relations with g0,
    # so d no longer maps invariant cochains to invariant cochains
    g, L = _gl22_simple_l()
    lab = g.odd_labels()[0]
    actions = dict(L.actions)
    actions[lab] = {j: {i: 2 * x for i, x in col.items()} for j, col in L.actions[lab].items()}
    M = SuperModuleRep(g, L.parities, L.weights, actions, den=L.den)
    with pytest.raises(SignConventionBroken, match="differential image is not an invariant cochain"):
        build_complex(g, M, 3)


def test_differential_image_outside_the_next_slice_raises():
    # images are written straight onto next-slice positions; a term with no
    # position there is a broken grading, not a dropped entry
    g, L = _gl22_simple_l()
    cx = build_complex(g, L, 2)
    src, dst = cx.degrees[1], cx.degrees[2]
    col = next(c for c in _differential_columns(L, g.odd_labels(), src.keys, dst.keys, src.basis)
               if c)
    k = next(iter(col))
    short = dst.keys[:k] + dst.keys[k + 1:]
    with pytest.raises(SignConventionBroken, match="differential leaves the weight slice"):
        _differential_columns(L, g.odd_labels(), src.keys, short, src.basis)


def test_build_complex_rejects_d_squared_nonzero(monkeypatch):
    # add to every image of a degree-one cochain an invariant degree-two
    # cochain b with d b != 0: images stay invariant, but d.d does not vanish
    g, L = _gl22_simple_l()
    cx = build_complex(g, L, 3)
    src, dst = cx.degrees[2], cx.degrees[3]
    b = next(v for v in src.basis
             if _differential_columns(L, g.odd_labels(), src.keys, dst.keys, [v])[0])
    true_columns = cohomology._differential_columns

    def shifted(M, gens, keys, next_keys, vecs):
        columns = true_columns(M, gens, keys, next_keys, vecs)
        if keys and len(keys[0][0]) == 1:
            for col in columns:
                axpy(col, b.items(), 1)
        return columns

    monkeypatch.setattr(cohomology, "_differential_columns", shifted)
    with pytest.raises(SignConventionBroken, match=r"d \. d != 0"):
        build_complex(g, L, 3)


def test_build_complex_rejects_a_non_invariant_image_in_the_top_degree(monkeypatch):
    # only d^p_max's images, which land in degree p_max+1 where no basis is
    # built, get a vector the raising operators do not kill
    g, L = _gl22_simple_l()
    p_max = 2
    cx = build_complex(g, L, p_max)
    top, n_images = cx.top_keys, cx.degrees[p_max].dim
    bad = next(v for v in ({k: 1} for k in range(len(top)))
               if cohomology._raising_images(g, L, g.odd_labels(), top, [v])[0])
    true_columns = cohomology._differential_columns

    def shifted(M, gens, keys, next_keys, vecs):
        columns = true_columns(M, gens, keys, next_keys, vecs)
        if next_keys == top:
            for col in columns[len(columns) - n_images:]:
                axpy(col, bad.items(), 1)
        return columns

    monkeypatch.setattr(cohomology, "_differential_columns", shifted)
    with pytest.raises(SignConventionBroken, match="differential image is not an invariant cochain"):
        build_complex(g, L, p_max)


def test_invariant_bases_are_built_up_to_p_max_only(monkeypatch):
    calls = []
    true_kernel = cohomology.column_kernel

    def counted(columns):
        calls.append(len(columns))
        return true_kernel(columns)

    monkeypatch.setattr(cohomology, "column_kernel", counted)
    g, L = _gl22_simple_l()
    for p_max in (0, 3):
        calls.clear()
        cx = build_complex(g, L, p_max)
        assert len(calls) == p_max + 1
        assert calls == [len(deg.keys) for deg in cx.degrees]


@pytest.mark.parametrize("route", [
    lambda C: build_complex(C.algebra, C, -1),
    lambda C: cohomology_dims(C.algebra, C, -1),
    lambda C: ext_dims(C, C, -1),
    lambda C: kac_ext_dims(parse_weight(1, 1, "0|0"), C, -1),
], ids=["build_complex", "cohomology_dims", "ext_dims", "kac_ext_dims"])
def test_negative_p_max_is_rejected(route):
    # a negative degree bound is bad input on every route, never an empty table
    with pytest.raises(ValueError, match="^p_max must be >= 0$"):
        route(trivial_module(gl_superalgebra(1, 1)))
