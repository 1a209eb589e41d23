import random
from fractions import Fraction
from itertools import combinations, product
from math import lcm

import pytest

import supvar.support
from supvar.algebra import detecting_subalgebra, gl_superalgebra
from supvar.config import RunConfig
from supvar.errors import ShapeMismatch, Unsupported, ZeroPoint
from supvar.linalg import IncrementalSpan, axpy, span_dim
from supvar.modules import (
    L0_module,
    SuperModuleRep,
    _build_kac_module,
    direct_sum,
    kac_module,
    parity_shift,
    simple_module,
    tensor,
    trivial_module,
)
from supvar.roots import parse_weight, weight
from supvar.support import (
    _build_rank_plan,
    _deciding_block,
    _primitive,
    _sample_plan,
    _sample_point,
    atyp_module,
    compare_support,
    empirical_support,
    is_projective_at,
    odd_point,
)
from views import fraction_actions

# the support sampler's one setting: its seed and its points per coordinate subset
SEED, SAMPLES = 0xD15EA5E, 3


def sample_points(m, n, seed=SEED, samples=SAMPLES):
    """(subset, point) for each of ``samples`` points per nonempty coordinate subset,
    drawn at seed, in the order ``empirical_support`` tests them."""
    r = min(m, n)
    return [(subset, _sample_point(seed, m, n, subset, k, r))
            for size in range(1, r + 1) for subset in combinations(range(1, r + 1), size)
            for k in range(samples)]


def test_projectivity_examples():
    g = gl_superalgebra(1, 1)
    C = trivial_module(g)
    assert not is_projective_at(C, odd_point([1]))
    K0 = kac_module(parse_weight(1, 1, "0|0"))
    assert is_projective_at(K0, odd_point([1]))
    L = simple_module(parse_weight(1, 1, "1|0"))
    assert is_projective_at(L, odd_point([1]))


def test_zero_point_rejected():
    C = trivial_module(gl_superalgebra(2, 2))
    with pytest.raises(ZeroPoint):
        is_projective_at(C, odd_point([0, 0]))


def test_point_length_is_checked_before_zero():
    C = trivial_module(gl_superalgebra(2, 2))
    for coords in ([], [0], [0, 0, 0], [1, 0, 0]):
        with pytest.raises(ShapeMismatch, match="defect is 2"):
            is_projective_at(C, odd_point(coords))


def test_rank_test_refuses_a_module_over_the_even_part():
    # x_t is odd, so it is not in gl(2) + gl(2) and acts on no L0 module
    L = L0_module(weight(2, 2, (1, 0, 0, -1)))
    with pytest.raises(Unsupported, match=r"needs a gl\(2\|2\)-module"):
        empirical_support(L)
    with pytest.raises(Unsupported, match=r"needs a gl\(2\|2\)-module"):
        is_projective_at(L, odd_point([1, 0]))
    assert not L._rank_plans


def test_scaling_invariance():
    # a support variety is a cone: the verdict at a is the verdict at every s a, s != 0
    rng = random.Random(41)
    for M in reference_modules():
        for coords in reference_points(M):
            verdict = is_projective_at(M, odd_point(coords))
            c = Fraction(rng.randint(1, 7), rng.randint(1, 5))
            for s in (c, -1, 3, Fraction(1, 2)):
                assert is_projective_at(M, odd_point([s * x for x in coords])) == verdict


def test_empirical_support_examples():
    K0 = kac_module(parse_weight(1, 1, "0|0"))
    emp = empirical_support(K0)
    assert emp.subsets == frozenset() and emp.dim == 0
    assert all(verdict for _, _, verdict in emp.tested)

    C22 = trivial_module(gl_superalgebra(2, 2))
    emp = empirical_support(C22)
    assert emp.nonempty_subsets() == [(1,), (2,), (1, 2)]
    assert emp.dim == 2

    L0 = simple_module(parse_weight(1, 1, "0|0"))
    emp = empirical_support(L0)
    assert emp.nonempty_subsets() == [(1,)]
    assert emp.dim == 1


def test_empirical_support_deterministic():
    L = simple_module(parse_weight(2, 2, "1,0|0,-1"))
    a = empirical_support(L)
    b = empirical_support(L)
    assert a == b


def test_atyp_module_examples():
    g = gl_superalgebra(1, 1)
    assert atyp_module(trivial_module(g)) == 1
    assert atyp_module(kac_module(parse_weight(1, 1, "0|0"))) == 0
    assert atyp_module(simple_module(parse_weight(2, 2, "0,0|0,0"))) == 2


def test_direct_sum_union_law():
    M = simple_module(parse_weight(1, 1, "0|0"))      # support {1}
    N = kac_module(parse_weight(1, 1, "0|0"))          # empty support
    both = empirical_support(direct_sum(M, N))
    assert both.subsets == empirical_support(M).subsets | empirical_support(N).subsets
    twice = empirical_support(direct_sum(M, M))
    assert twice.subsets == empirical_support(M).subsets


def test_tensor_containment_law():
    M = simple_module(parse_weight(1, 1, "0|0"))
    N = kac_module(parse_weight(1, 1, "0|0"))
    prod = empirical_support(tensor(M, N))
    assert prod.subsets <= empirical_support(M).subsets
    assert prod.subsets <= empirical_support(N).subsets
    square = empirical_support(tensor(M, M))
    assert square.subsets <= empirical_support(M).subsets


def test_simple_support_is_permutation_stable():
    for text in ["0,0|0,0", "1,0|0,-2"]:
        emp = empirical_support(simple_module(parse_weight(2, 2, text)))
        swapped = frozenset(frozenset(3 - t for t in s) for s in emp.subsets)
        assert swapped == emp.subsets


def test_compare_support():
    cmp = compare_support(parse_weight(1, 1, "0|0"))
    assert cmp.match and cmp.empirical.dim == 1
    cmp = compare_support(parse_weight(1, 1, "1|0"))
    assert cmp.match and cmp.empirical.dim == 0
    assert not cmp.only_theoretical and not cmp.only_empirical


def test_compare_support_intermediate_atypicality():
    # atypicality 1 inside defect 2: the support is the two axes, not the plane
    for text, dim in [("1,0|0,-2", 1), ("2,1|1,-1", 0), ("3,0|0,0", 1)]:
        cmp = compare_support(parse_weight(2, 2, text))
        assert cmp.match and cmp.empirical.dim == dim
        if dim == 1:
            assert cmp.empirical.nonempty_subsets() == [(1,), (2,)]


def _zero_block(M, a):
    """Ascending indices of the basis vectors that x^2 kills, x = sum a_t x_t, read
    off the module's grouping by x_t^2-eigenvalues."""
    return sorted(i for key, idxs in M._square_eigenvalues.items()
                  if not sum(x * x * k for x, k in zip(a, key)) for i in idxs)


@pytest.mark.parametrize("m, n, text", [(3, 2, "1,0,0|0,-1"), (2, 3, "1,0|0,0,-1")])
def test_square_eigenvalue_keys_are_the_squares_of_the_generators(m, n, text):
    # [x_t, x_t] = 2 x_t^2 is diagonal, so x_t^2 acts on weight mu by half its
    # coefficients paired with mu; every basis vector sits in the group of its values
    det = detecting_subalgebra(m, n)
    g = gl_superalgebra(m, n)
    squares = [g.bracket_elements(x, x) for x in det.odd_basis]
    assert all(a == b for sq in squares for (_, a, b) in sq)
    lam = parse_weight(m, n, text)
    for M in (kac_module(lam), simple_module(lam)):
        grouped = []
        for key, idxs in M._square_eigenvalues.items():
            for i in idxs:
                mu = M.weights[i].coords
                assert key == tuple(sum(Fraction(c, 2) * mu[a - 1] for (_, a, _), c in sq.items())
                                    for sq in squares)
            grouped += idxs
        assert sorted(grouped) == list(range(M.dim))


def reference_zero_block(M, point):
    """Indices of the weight vectors x^2 kills, c(mu) summed in Fractions weight by weight."""
    m, r = M.algebra.m, point.r
    a = point.coords
    zero_block = []
    for i, w in enumerate(M.weights):
        c = Fraction(0)
        for t in range(r):
            if a[t]:
                c += a[t] * a[t] * (w.coords[m - t - 1] + w.coords[m + t])
        if c == 0:
            zero_block.append(i)
    return zero_block


def reference_is_projective_at(M, point):
    """The Fraction rank test this package used before its integer one.

    The point is not scaled, and the columns are Fraction combinations of
    the Fraction actions.
    """
    zero_block = reference_zero_block(M, point)
    if not zero_block:
        return True
    if len(zero_block) % 2:
        return False
    a = point.coords
    det = detecting_subalgebra(M.algebra.m, M.algebra.n)
    actions = fraction_actions(M)
    columns = []
    for i in zero_block:
        col = {}
        for t in range(point.r):
            if a[t]:
                for lab in det.generator_labels(t + 1):
                    axpy(col, actions[lab].get(i, {}).items(), a[t])
        assert set(zero_block).issuperset(col)
        columns.append(col)
    return 2 * span_dim(columns) == len(zero_block)


def reference_modules():
    # K(0,-2,-2|2) on gl(3|1) has action denominator 2; gl(2|3) has m < n
    modules = [kac_module(parse_weight(2, 2, "1,0|0,-1")),
               simple_module(parse_weight(2, 2, "1,0|0,-1")),
               kac_module(parse_weight(3, 1, "0,-2,-2|2")),
               kac_module(parse_weight(3, 2, "1,0,0|0,-1")),
               kac_module(parse_weight(2, 3, "0,0|0,0,0"))]
    assert modules[2].den == 2
    return modules


def reference_points(M):
    """The sampled points of M's empirical support, 2 more per subset drawn at seed 7,
    then fixed extra ones."""
    F = Fraction
    extra = {1: [(F(2, 3),), (F(-5, 7),)],
             2: [(F(1, 2), F(-2, 3)), (F(3, 4), F(5, 6)), (F(-7, 5), F(7, 10)),
                 (F(1, 2), F(-1, 2)), (F(2, 3), F(4, 6)), (F(-3, 8), F(0))],
             3: [(F(1, 2), F(-2, 3), F(3, 4)), (F(1), F(-1), F(0)), (F(2, 5), F(0), F(-2, 5))]}
    emp = empirical_support(M)
    other = [pt.coords for _, pt in sample_points(M.algebra.m, M.algebra.n, seed=7, samples=2)]
    return [coords for _, coords, _ in emp.tested] + other + extra[emp.r]


def test_integer_rank_test_matches_fraction_reference():
    seen = set()
    for M in reference_modules():
        for coords in reference_points(M):
            pt = odd_point(coords)
            # a group where some x_t^2 with a_t != 0 is nonzero never changes the
            # verdict (x acts there invertibly or inside a nondegenerate Clifford
            # algebra), so a wrong c(mu) can hide from the verdicts: compare blocks
            assert _zero_block(M, pt.coords) == reference_zero_block(M, pt)
            verdict = is_projective_at(M, pt)
            assert verdict == reference_is_projective_at(M, pt), (M, coords)
            seen.add(verdict)
    assert seen == {True, False}


def full_block_is_projective_at(M, point):
    """The integer rank test over the whole zero block, every group where c(mu) = 0."""
    den = lcm(*[x.denominator for x in point.coords])
    a = [x.numerator * (den // x.denominator) for x in point.coords]
    block = _zero_block(M, a)
    if len(block) % 2:
        return False
    det = detecting_subalgebra(M.algebra.m, M.algebra.n)
    columns = []
    for i in block:
        col = {}
        for t, x in enumerate(a):
            if x:
                for lab in det.generator_labels(t + 1):
                    axpy(col, M.actions[lab].get(i, {}).items(), x)
        assert set(block).issuperset(col)
        columns.append(col)
    return 2 * span_dim(columns) == len(block)


def test_deciding_block_verdicts_match_full_zero_block():
    # the rank test eliminates only the groups where every x_t with a_t != 0
    # squares to 0; every other group of the zero block is free over <x>
    modules = reference_modules() + [simple_module(parse_weight(2, 2, "1,0|0,-2")),
                                     kac_module(parse_weight(3, 3, "0,0,0|0,0,0")),
                                     simple_module(parse_weight(3, 3, "1,0,0|0,0,-1"))]
    seen, smaller = set(), 0
    for M in modules:
        for coords in reference_points(M):
            pt = odd_point(coords)
            verdict = is_projective_at(M, pt)
            assert verdict == full_block_is_projective_at(M, pt), (M, coords)
            seen.add(verdict)
            a = [x * lcm(*[y.denominator for y in coords]) for x in coords]
            smaller += len(_deciding_block(M, a)) < len(_zero_block(M, a))
    assert seen == {True, False}
    assert smaller


def test_empirical_support_of_kac_module_builds_only_detecting_columns():
    # no Kac label is built in full: the rank test reads each column of an
    # x_t label on its own, and only inside a deciding block, which for a
    # point with support S lies inside the deciding block of each {t} in S
    K = _build_kac_module(parse_weight(3, 3, "0,0,0|0,0,-1"), RunConfig.dimension_budget)
    det = detecting_subalgebra(3, 3)
    assert empirical_support(K).subsets == frozenset()
    assert not K.actions._built
    read = K.actions._columns
    assert set(read) == {lab for t in (1, 2, 3) for lab in det.generator_labels(t)}
    for t in (1, 2, 3):
        block = set(_deciding_block(K, [int(s == t) for s in (1, 2, 3)]))
        assert len(block) == K.dim // 3 == 512
        for lab in det.generator_labels(t):
            assert set(read[lab]) == block


def free_half_first(M, a, block):
    """The block, with the Kac basis vectors y_S v with f_{t0} not in S first.

    The reference order, read off the Kac PBW layout in ``meta``: t0 is the
    first t with a_t != 0 and f_t, the second label of
    ``generator_labels(t)``, is the g_-1 part of x_t.  Any other module
    keeps the block order.
    """
    if M.meta.get("kind") != "kac":
        return block
    t0 = next(t for t, x in enumerate(a) if x) + 1
    f_t0 = detecting_subalgebra(M.algebra.m, M.algebra.n).generator_labels(t0)[1]
    table, D = M.meta["table"], M.meta["l0_dim"]
    f = table.y_labels.index(f_t0)
    has_f = [f in S for S in table.subsets]
    return [i for i in block if not has_f[i // D]] + [i for i in block if has_f[i // D]]


def assert_plan_order_is_the_reference(M):
    """On every nonzero pattern, the plan offers the x_t columns in ``free_half_first`` order."""
    det = detecting_subalgebra(M.algebra.m, M.algebra.n)
    planned = 0
    for pattern in product((0, 1), repeat=det.r):
        if not any(pattern):
            continue
        size, columns = _build_rank_plan(M, pattern)
        if not columns:
            continue
        xs = []
        for t, x in enumerate(pattern):
            if x:
                xt = {}
                for lab in det.generator_labels(t + 1):
                    for i, col in M.actions[lab].items():
                        axpy(xt.setdefault(i, {}), col.items(), 1)
                xs.append(xt)
        order = free_half_first(M, pattern, _deciding_block(M, pattern))
        assert len(order) == size
        assert columns == tuple(zip(*[[xt.get(i, {}) for i in order] for xt in xs])), (M, pattern)
        planned += 1
    return planned


def test_plan_order_is_the_kac_free_half_on_the_sweep(sweep_modules):
    sweep, _ = sweep_modules
    modules = [M for _, _, name, M, _ in sweep if name.startswith("kac:")]
    assert len(modules) == 25 + 75 + 225
    assert sum(map(assert_plan_order_is_the_reference, modules)) > 0


def reference_rank_test(M, point):
    """The integer rank test one point at a time, reading every label of the x_t in full.

    The point is scaled by the lcm of its denominators only, so s a and a
    are tested apart.
    """
    m, n = M.algebra.m, M.algebra.n
    den = lcm(*[x.denominator for x in point.coords])
    a = [x.numerator * (den // x.denominator) for x in point.coords]
    block = _deciding_block(M, a)
    if not block:
        return True
    size = len(block)
    if size % 2:
        return False
    det = detecting_subalgebra(m, n)
    terms = [(M.actions.get(lab, {}), x) for t, x in enumerate(a) if x
             for lab in det.generator_labels(t + 1)]
    in_block = set(block)
    for action, _ in terms:
        for i in block:
            if not in_block.issuperset(action.get(i, ())):
                raise ShapeMismatch("zero eigenblock is not action stable")
    span = IncrementalSpan()
    for i in free_half_first(M, a, block):
        col = {}
        for action, x in terms:
            axpy(col, action.get(i, {}).items(), x)
        if span.add(col) and span.dim == size // 2:
            return True
    return 2 * span.dim == size


def assert_empirical_support_matches_reference(M):
    """empirical_support(M).tested equals the reference verdict at each sampled point.

    The support is sampled first, so on a Kac module it reads its columns
    before the reference builds the labels.
    """
    tested = empirical_support(M).tested
    points = sample_points(M.algebra.m, M.algebra.n)
    assert tested == tuple((subset, pt.coords, reference_rank_test(M, pt))
                           for subset, pt in points), M


def test_empirical_support_matches_the_point_by_point_reference(sweep_modules):
    sweep, _ = sweep_modules
    modules = [M for _, _, name, M, _ in sweep if not name.startswith("tensor:")]
    assert len(modules) == 2 * (25 + 75 + 225)
    for M in modules:
        assert_empirical_support_matches_reference(M)
    # 5 more points per subset, drawn at seed 7, through the same rank test
    M = modules[-1]
    for _, pt in sample_points(M.algebra.m, M.algebra.n, seed=7, samples=5):
        assert is_projective_at(M, pt) == reference_rank_test(M, pt), (M, pt)


@pytest.mark.parametrize("m, n, text", [(2, 3, "0,0|0,0,0"), (4, 2, "1,0,0,0|0,-1"),
                                        (2, 4, "1,0|0,0,0,-1")])
def test_empirical_support_matches_the_reference_with_m_and_n_apart(monkeypatch, m, n, text):
    K = kac_module(parse_weight(m, n, text))
    assert K.dim == {(2, 3): 64, (4, 2): 2048, (2, 4): 2048}[m, n]
    assert_empirical_support_matches_reference(K)
    assert assert_plan_order_is_the_reference(K) > 0
    # the free half is offered first, its f_t0 read from generator_labels, so
    # the test stops after half of the deciding block
    calls = []
    add = IncrementalSpan.add
    monkeypatch.setattr(IncrementalSpan, "add",
                        lambda span, vec: calls.append(vec) or add(span, vec))
    for a in ([0, 1], [1, -1]):
        calls.clear()
        assert is_projective_at(K, odd_point(a))
        assert 2 * len(calls) == len(_deciding_block(K, a)) > 0


@pytest.mark.parametrize("m, n, classes", [(2, 2, 5), (3, 2, 5), (3, 3, 15)])
def test_empirical_support_tests_each_point_once_up_to_scale(monkeypatch, m, n, classes):
    # a one-coordinate subset's samples are one point up to scale
    calls = []
    monkeypatch.setattr(supvar.support, "is_projective_at",
                        lambda M, pt: calls.append(pt) or is_projective_at(M, pt))
    emp = empirical_support(trivial_module(gl_superalgebra(m, n)))
    r = min(m, n)
    assert len(emp.tested) == 3 * (2 ** r - 1) and len(calls) == classes
    assert len({_primitive(pt) for pt in calls}) == classes


def test_kac_rank_test_stops_after_the_free_half(monkeypatch):
    # the columns y_S v with f_{t0} not in S are independent, so every add is accepted
    K = kac_module(parse_weight(3, 3, "1,0,0|0,0,-1"))
    calls = []
    add = IncrementalSpan.add

    def counted_add(span, vec):
        calls.append(vec)
        return add(span, vec)

    monkeypatch.setattr(IncrementalSpan, "add", counted_add)
    assert is_projective_at(K, odd_point([0, 1, 1]))
    assert 2 * len(calls) == len(_deciding_block(K, [0, 1, 1])) == 528


@pytest.mark.parametrize("build, a, adds, size", [
    (lambda: parity_shift(kac_module(parse_weight(3, 3, "1,0,0|0,0,-1"))), [0, 1, 1], 264, 528),
    (lambda: direct_sum(kac_module(parse_weight(2, 2, "0,0|0,0")),
                        kac_module(parse_weight(2, 2, "1,0|0,-1"))), [1, 0], 16, 32),
], ids=["parity_shift", "direct_sum"])
def test_rank_test_offers_the_columns_f_t0_moves_first_on_any_module(monkeypatch, build, a,
                                                                      adds, size):
    # the offer order reads the f_t0 columns, not the Kac layout, so a parity
    # shift or a sum of Kac modules stops after half of its block too
    M = build()
    calls = []
    add = IncrementalSpan.add
    monkeypatch.setattr(IncrementalSpan, "add",
                        lambda span, vec: calls.append(vec) or add(span, vec))
    assert is_projective_at(M, odd_point(a))
    assert (len(calls), len(_deciding_block(M, a))) == (adds, size)


def leaky_kac_module():
    """K(0,0|0,0) on gl(2|2), and a copy whose first label of x_1 sends the deciding
    block's last offered column at (1, 0) outside that block."""
    K = kac_module(parse_weight(2, 2, "0,0|0,0"))
    a = [1, 0]
    block = _deciding_block(K, a)
    outside = next(i for i in range(K.dim) if i not in block)
    # offered last, after the size/2 columns that end the test on K
    last = free_half_first(K, a, block)[-1]
    label = detecting_subalgebra(2, 2).generator_labels(1)[0]
    actions = {lab: {j: dict(col) for j, col in K.actions[lab].items()}
               for lab in K.algebra.labels}
    actions[label].setdefault(last, {})[outside] = 1
    leaky = SuperModuleRep(K.algebra, K.parities, K.weights, actions,
                           basis_names=K.basis_names, meta=K.meta, den=K.den)
    return K, leaky


def test_block_leak_on_a_column_after_the_early_exit_is_caught():
    K, leaky = leaky_kac_module()
    assert is_projective_at(K, odd_point([1, 0]))
    with pytest.raises(ShapeMismatch, match="not action stable"):
        is_projective_at(leaky, odd_point([1, 0]))


def test_a_block_leak_fails_every_point_of_its_pattern_and_keeps_no_plan():
    _, leaky = leaky_kac_module()
    sampled = [pt.coords for subset, pt, _ in _sample_plan(2, 2) if subset == (1,)]
    F = Fraction
    for coords in sampled + [(1, 0), (F(-3, 4), 0), (7, 0)]:
        with pytest.raises(ShapeMismatch, match="not action stable"):
            is_projective_at(leaky, odd_point(coords))
        assert (True, False) not in leaky._rank_plans
    with pytest.raises(ShapeMismatch, match="not action stable"):
        empirical_support(leaky)
    assert (True, False) not in leaky._rank_plans
    # x_2 alone reads no label of x_1, so its pattern is planned and kept
    assert is_projective_at(leaky, odd_point([0, 1]))
    assert (False, True) in leaky._rank_plans


def test_empirical_support_builds_one_plan_per_nonzero_pattern(monkeypatch):
    # a fresh module: 15 points up to scale over 7 patterns of gl(3|3)
    K = _build_kac_module(parse_weight(3, 3, "0,0,0|0,0,-1"), RunConfig.dimension_budget)
    builds, points = [], []
    build = supvar.support._build_rank_plan
    monkeypatch.setattr(supvar.support, "_build_rank_plan",
                        lambda M, a: builds.append(a) or build(M, a))
    monkeypatch.setattr(supvar.support, "is_projective_at",
                        lambda M, pt: points.append(pt) or is_projective_at(M, pt))
    assert empirical_support(K).subsets == frozenset()
    patterns = [tuple(x != 0 for x in a) for a in builds]
    assert len(points) == 15 and len(builds) == len(set(patterns)) == 7
    assert set(K._rank_plans) == set(patterns)


def test_rank_plans_are_reused_and_match_the_reference(monkeypatch, sweep_modules):
    sweep, _ = sweep_modules
    modules = [M for _, _, name, M, _ in sweep if not name.startswith("tensor:")]
    builds = []
    build = supvar.support._build_rank_plan
    monkeypatch.setattr(supvar.support, "_build_rank_plan",
                        lambda M, a: builds.append(a) or build(M, a))
    seen = set()
    for M in modules:
        emp = empirical_support(M)
        plans = dict(M._rank_plans)
        built = len(builds)
        # one test per point up to scale: the reference reads every action in Fractions
        points = {_primitive(odd_point(coords)): coords for _, coords, _ in emp.tested}
        for coords in points.values():
            pt = odd_point(coords)
            verdict = is_projective_at(M, pt)
            assert verdict == reference_is_projective_at(M, pt), (M, coords)
            seen.add(verdict)
        assert len(builds) == built
        assert all(M._rank_plans[key] is plan for key, plan in plans.items())
    assert seen == {True, False}


@pytest.mark.parametrize("m, n", [(3, 3), (2, 2), (3, 2), (2, 4), (1, 1)])
def test_sample_plan_is_the_sampled_point_sequence(m, n):
    expected = tuple((subset, pt, _primitive(pt)) for subset, pt in sample_points(m, n))
    assert _sample_plan(m, n) == expected
    assert len(expected) == SAMPLES * (2 ** min(m, n) - 1)
    # drawn once per algebra
    assert _sample_plan(m, n) is _sample_plan(m, n)
