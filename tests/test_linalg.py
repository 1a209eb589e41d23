import importlib
import pkgutil
import random
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import supvar
from supvar.linalg import (
    IncrementalSpan,
    RationalMatrix,
    column_kernel,
    format_scalar,
    kernel_basis,
    rank,
    scalar,
    solve,
    span_dim,
)


def rand_fraction(rng, bound=6):
    return Fraction(rng.randint(-bound, bound), rng.randint(1, 4))


def rand_matrix(rng, rows, cols, bound=6):
    return RationalMatrix([[rand_fraction(rng, bound) for _ in range(cols)] for _ in range(rows)])


def identity(n):
    return RationalMatrix([[int(i == j) for j in range(n)] for i in range(n)])


def zeros(rows, cols):
    return RationalMatrix([[0] * cols for _ in range(rows)])


def apply(A, v):
    return tuple(sum((a * x for a, x in zip(row, v)), Fraction(0)) for row in A.entries)


def test_scalar_parsing():
    assert scalar("3/4") == Fraction(3, 4)
    assert scalar(-2) == Fraction(-2)
    assert format_scalar(Fraction(6, 4)) == "3/2"
    assert format_scalar(Fraction(5)) == "5"


def test_rank_examples():
    assert rank(identity(2)) == 2
    assert rank(zeros(2, 2)) == 0
    assert rank(RationalMatrix([[1, 2], [2, 4]])) == 1


def test_kernel_examples():
    assert kernel_basis(identity(3)) == []
    zero_kernel = kernel_basis(zeros(3, 3))
    assert len(zero_kernel) == 3
    assert span_dim(zero_kernel) == 3
    (v,) = kernel_basis(RationalMatrix([[1, 1]]))
    assert v[0] * 1 + v[1] * 1 == 0 and v != (0, 0)
    assert v[0] * Fraction(-1) == v[1]


def test_rank_nullity_and_exact_kernels():
    rng = random.Random(11)
    for _ in range(40):
        rows, cols = rng.randint(1, 6), rng.randint(1, 6)
        A = rand_matrix(rng, rows, cols)
        ker = kernel_basis(A)
        assert rank(A) + len(ker) == cols
        for v in ker:
            assert all(x == 0 for x in apply(A, v))


def test_solve_random_and_inconsistent():
    rng = random.Random(7)
    for _ in range(25):
        rows, cols = rng.randint(1, 5), rng.randint(1, 5)
        A = rand_matrix(rng, rows, cols)
        x = [rand_fraction(rng) for _ in range(cols)]
        b = apply(A, x)
        got = solve(A, b)
        assert got is not None
        assert apply(A, got) == b
    assert solve(RationalMatrix([[1, 0], [1, 0]]), [1, 2]) is None


def test_arithmetic_round_trips():
    rng = random.Random(5)
    for _ in range(100):
        a, b = rand_fraction(rng, 50), rand_fraction(rng, 50)
        assert (a + b) - b == a
        if b != 0:
            assert (a * b) / b == a


def test_incremental_span_coordinates():
    span = IncrementalSpan()
    v1 = {0: Fraction(2), 1: Fraction(1)}
    v2 = {1: Fraction(3)}
    assert span.add(v1) and span.add(v2)
    assert not span.add({0: Fraction(2), 1: Fraction(4)})
    coords = span.express({0: Fraction(4), 1: Fraction(5)})
    assert coords == {0: Fraction(2), 1: Fraction(1)}
    assert span.express({2: Fraction(1)}) is None
    # keys of mixed types are never compared with each other
    mixed = IncrementalSpan()
    assert mixed.add({("d", 0): 1, (("E", 1, 2), ((0,), 1)): 2})
    assert mixed.add({("d", 0): 1})
    assert not mixed.add({(("E", 1, 2), ((0,), 1)): 3})
    assert mixed.express({(("E", 1, 2), ((0,), 1)): 4, ("d", 0): 1}) == {0: 2, 1: -1}


def reference_rref(rows, n_cols):
    """Gauss-Jordan reduced row echelon form and its pivot columns."""
    R = [[Fraction(x) for x in row] for row in rows]
    pivots = []
    for c in range(n_cols):
        r = len(pivots)
        p = next((i for i in range(r, len(R)) if R[i][c]), None)
        if p is None:
            continue
        R[r], R[p] = R[p], R[r]
        R[r] = [x / R[r][c] for x in R[r]]
        for i in range(len(R)):
            if i != r and R[i][c]:
                R[i] = [a - R[i][c] * b for a, b in zip(R[i], R[r])]
        pivots.append(c)
    return R, pivots


def reference_kernel(rows, n_cols):
    R, pivots = reference_rref(rows, n_cols)
    basis = []
    for f in (c for c in range(n_cols) if c not in pivots):
        v = [Fraction(0)] * n_cols
        v[f] = Fraction(1)
        for i, pc in enumerate(pivots):
            v[pc] = -R[i][f]
        basis.append(tuple(v))
    return basis


def reference_solve(rows, n_cols, b):
    R, pivots = reference_rref([list(row) + [x] for row, x in zip(rows, b)], n_cols + 1)
    if n_cols in pivots:
        return None
    x = [Fraction(0)] * n_cols
    for i, pc in enumerate(pivots):
        x[pc] = R[i][n_cols]
    return tuple(x)


def engine_solve(rows, b):
    """``solve`` on raw entries, so ints and mixed rows reach the span unconverted."""
    span = IncrementalSpan()
    independent = [j for j, col in enumerate(zip(*rows)) if span.add(col)]
    coords = span.express(b)
    if coords is None:
        return None
    x = [Fraction(0)] * (len(rows[0]) if rows else 0)
    for i, c in coords.items():
        x[independent[i]] = c
    return tuple(x)


small_fractions = st.one_of(st.just(Fraction(0)), st.fractions(-4, 4, max_denominator=4))
small_ints = st.integers(-4, 4)
# numerators near 2**70 over denominators up to 10**6: every input is scaled,
# rows carry content to divide out, and the coordinates get wide denominators
wide = st.builds(lambda p, q, sign: Fraction(sign * p, q), st.integers(2**70 - 2**12, 2**70),
                 st.integers(1, 10**6), st.sampled_from((1, -1)))
ENTRY_KINDS = {
    "fractions": small_fractions,
    "ints": small_ints,
    "mixed": st.one_of(small_ints, small_fractions),
    "wide": st.one_of(st.just(0), small_ints, small_fractions, wide),
}
entries = ENTRY_KINDS["mixed"]


@st.composite
def matrices(draw):
    """Small sparse-ish matrices of one entry kind, sometimes with a forced zero row or column."""
    kind = draw(st.sampled_from(sorted(ENTRY_KINDS)))
    n_rows, n_cols = draw(st.integers(0, 5)), draw(st.integers(0, 5))
    rows = [[draw(ENTRY_KINDS[kind]) for _ in range(n_cols)] for _ in range(n_rows)]
    zero = 0 if kind == "ints" else Fraction(0)
    if rows and n_cols and draw(st.booleans()):
        rows[draw(st.integers(0, n_rows - 1))] = [zero] * n_cols
    if rows and n_cols and draw(st.booleans()):
        c = draw(st.integers(0, n_cols - 1))
        for row in rows:
            row[c] = zero
    return rows


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(rows=matrices(), data=st.data())
@example(rows=[], data=None)
@example(rows=[[], []], data=None)
@example(rows=[[0, 0], [0, 0]], data=None)
@example(rows=[[2, 3, 1], [4, 5, 3], [6, 9, 3]], data=None)
@example(rows=[[2**70 + 1, Fraction(3, 10**6), 5],
               [Fraction(2**70 - 3, 999983), 4, Fraction(-7, 6)]], data=None)
def test_engine_matches_gauss_jordan_reference(rows, data):
    A = RationalMatrix(rows)
    _, pivots = reference_rref(rows, A.cols)
    kernel = reference_kernel(rows, A.cols)
    assert rank(A) == span_dim(rows) == len(pivots)
    assert kernel_basis(A) == kernel
    # column_kernel returns primitive int relations, positive at the dependent
    # column (the largest position); divided by that entry they are the reference
    relations = column_kernel([list(col) for col in zip(*rows)])
    for v in relations:
        lead = v[max(v)]
        assert lead > 0 and all(type(x) is int for x in v.values())
        assert gcd(*v.values()) == 1
    assert [tuple(Fraction(v.get(j, 0), v[max(v)]) for j in range(A.cols))
            for v in relations] == kernel
    if data is None:
        rhs = [[0] * A.rows, [Fraction(1)] * A.rows]
    else:
        rhs = [data.draw(st.lists(entries, min_size=A.rows, max_size=A.rows))]
        x = data.draw(st.lists(entries, min_size=A.cols, max_size=A.cols))
        rhs.append([sum((a * b for a, b in zip(row, x)), 0) for row in rows])
    for b in rhs:
        expected = reference_solve(rows, A.cols, b)
        assert solve(A, b) == engine_solve(rows, b) == expected


def test_float_entries_rejected():
    with pytest.raises(TypeError):
        span_dim([[1, Fraction(1, 2), 0.5]])
    with pytest.raises(TypeError):
        IncrementalSpan().add({"a": 2, "b": 0.0})


def test_dense_layer_has_no_new_callers():
    # RationalMatrix and its wrappers are bound only where they are defined
    # (and re-exported by the package); every other module eliminates
    # through IncrementalSpan and span_dim
    dense = {"RationalMatrix", "rank", "kernel_basis", "solve"}
    allowed = {"supvar.linalg"}
    bound = {}
    for info in pkgutil.iter_modules(supvar.__path__, "supvar."):
        if info.name not in allowed:
            names = dense & set(vars(importlib.import_module(info.name)))
            if names:
                bound[info.name] = sorted(names)
    assert bound == {}
