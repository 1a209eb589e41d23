import gc
import json
import operator
import sys
import threading
import weakref
from bisect import bisect_left
from fractions import Fraction
from functools import lru_cache
from itertools import combinations_with_replacement
from math import lcm

import pytest

import supvar.algebra
import supvar.modules
from supvar.algebra import gl_superalgebra
from supvar.config import RunConfig
from supvar.errors import (
    AlgebraMismatch,
    ConstructionOverflow,
    FormInconsistent,
    InvariantBroken,
    NotDominant,
)
from supvar.linalg import ONE, ZERO, IncrementalSpan, axpy, column_kernel, span_dim
from supvar.modules import (
    L0_module,
    SuperModuleRep,
    _build_kac_module,
    _check_form_adjointness,
    _form,
    _int_mul_add,
    _integerize,
    _nonzero_column,
    action_columns,
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
from supvar.roots import dim_L0, format_weight, parse_weight, weight
from views import fraction_actions


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


def test_L0_inner_product_is_sparse_positive_int_columns():
    # the seed of the contravariant form: int entries with no stored zeros,
    # symmetric, zero between distinct weights, positive on the diagonal and
    # nondegenerate
    for (m, n), text in [((2, 1), "2,1|0"), ((3, 2), "1,0,0|0,-1"),
                         ((3, 1), "0,-2,-2|2"), ((3, 3), "1,0,0|0,0,-1")]:
        L0 = L0_module(parse_weight(m, n, text))
        gram = L0.meta["gram"]
        assert sorted(gram) == list(range(L0.dim))
        for j, col in gram.items():
            for i, x in col.items():
                assert type(x) is int and x != 0
                assert gram[i].get(j) == x
                assert L0.weights[i] == L0.weights[j]
            assert col[j] > 0
        assert span_dim(gram[j] for j in range(L0.dim)) == L0.dim


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


# an atypical weight outside the acceptance sweep (entries in [-2, 2]): the
# session fixture holds the sweep's modules, but only the test holds K(LIVE)
LIVE = (2, 1, "3,1|-1")


def test_kac_module_returns_the_module_a_caller_holds():
    lam = parse_weight(*LIVE)
    K = kac_module(lam)
    assert kac_module(lam) is K
    assert kac_module(parse_weight(*LIVE)) is K  # an equal weight is the same key
    dumped = json.dumps(dump_module(K))
    gone = weakref.ref(K)
    del K
    gc.collect()
    assert gone() is None  # nothing kept it alive, so what follows is a new build
    assert json.dumps(dump_module(kac_module(lam))) == dumped


def test_kac_module_is_keyed_by_budget():
    lam = parse_weight(*LIVE)
    K = kac_module(lam)
    tight = kac_module(lam, budget=K.dim)
    assert tight is not K
    assert kac_module(lam, budget=K.dim) is tight
    assert json.dumps(dump_module(tight)) == json.dumps(dump_module(K))
    # a held module of a larger budget does not lift the guard
    with pytest.raises(ConstructionOverflow):
        kac_module(lam, budget=K.dim - 1)


def test_kac_module_built_from_four_threads_is_one_module_or_equal_ones():
    lam = parse_weight(*LIVE)
    expected = json.dumps(dump_module(kac_module(lam)))
    barrier = threading.Barrier(4)
    got = [None] * 4

    def build(k):
        barrier.wait()
        got[k] = kac_module(lam)

    threads = [threading.Thread(target=build, args=(k,)) for k in range(4)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=120)
    assert not any(thread.is_alive() for thread in threads)
    assert all(json.dumps(dump_module(K)) == expected for K in got)
    assert kac_module(lam) in got  # the table holds one of them


def test_simple_module_reuses_the_held_kac_module(monkeypatch):
    lam = parse_weight(*LIVE)
    real = supvar.modules.L0_module
    calls = []

    def counted(lam, budget):
        calls.append(lam)
        return real(lam, budget)

    monkeypatch.setattr(supvar.modules, "L0_module", counted)
    head = json.dumps(dump_module(simple_module(lam)))  # builds K and drops it
    assert len(calls) == 1
    K = kac_module(lam)
    assert len(calls) == 2
    L = simple_module(lam)
    assert len(calls) == 2  # the head is the quotient of the held K
    assert L.dim < K.dim
    assert json.dumps(dump_module(L)) == head


def reference_kac(lam):
    """Basis, weights and actions of K(lam) by PBW straightening over Fractions.

    A test-only oracle: label . y_S v_t is straightened recursively through
    label y_h y_rest = [label, y_h] y_rest + (-1)^{|label|} y_h label y_rest,
    with g1 killing the top layer and g0 acting on L0 at the right end.
    """
    m, n = lam.m, lam.n
    g = gl_superalgebra(m, n)
    L0 = L0_module(lam)
    L0_actions = fraction_actions(L0)
    y_labels = [("E", a, b) for a in range(m + 1, m + n + 1) for b in range(1, m + 1)]
    y_pos = {lab: i for i, lab in enumerate(y_labels)}
    mn = len(y_labels)
    subsets = sorted((tuple(i for i in range(mn) if mask >> i & 1) for mask in range(1 << mn)),
                     key=lambda s: (len(s), s))
    basis = [(S, t) for S in subsets for t in range(L0.dim)]
    basis_index = {key: i for i, key in enumerate(basis)}

    def prepend(h, S, t, coeff, out):
        """Add coeff * y_h y_S v_t, straightened, into out."""
        if h in S:
            return
        pos = 0
        while pos < len(S) and S[pos] < h:
            pos += 1
        if pos % 2:
            coeff = -coeff
        axpy(out, [((S[:pos] + (h,) + S[pos:], t), coeff)], ONE)

    memo = {}

    def act(label, S, t):
        cached = memo.get((label, S, t))
        if cached is not None:
            return cached
        out = {}
        deg = g.z_degree[label]
        if not S:
            if deg == -1:
                out[((y_pos[label],), t)] = ONE
            elif deg == 0:
                for r, c in L0_actions[label].get(t, {}).items():
                    out[((), r)] = c
        else:
            h, rest = S[0], S[1:]
            for lab2, cb in g.bracket(label, y_labels[h]).items():
                axpy(out, act(lab2, rest, t).items(), cb)
            sign = -ONE if g.parity[label] else ONE
            for (S2, t2), c in act(label, rest, t).items():
                prepend(h, S2, t2, sign * c, out)
        memo[(label, S, t)] = out
        return out

    actions = {}
    for label in g.labels:
        cols = {}
        for col, (S, t) in enumerate(basis):
            res = act(label, S, t)
            if res:
                cols[col] = {basis_index[key]: c for key, c in res.items()}
        actions[label] = cols
    weights = []
    for S, t in basis:
        w = L0.weights[t]
        for h in S:
            w = w + g.weight_of[y_labels[h]]
        weights.append(w)
    return basis, weights, actions


def assert_kac_matches_reference(lam):
    K = kac_module(lam)
    basis, weights, actions = reference_kac(lam)
    # the layout is the table's alone: y_{S_j} v_t at j D + t, and S_j minus
    # its least element at rest[j]
    table, D = K.meta["table"], K.meta["l0_dim"]
    assert [(S, t) for S in table.subsets for t in range(D)] == basis
    assert [table.subsets[r] for r in table.rest[1:]] == [S[1:] for S in table.subsets[1:]]
    assert K.meta.keys().isdisjoint({"basis", "basis_index", "y_labels"})
    assert list(K.weights) == weights
    K_actions = fraction_actions(K)
    for label in K.algebra.labels:
        assert K_actions[label] == actions[label], (format_weight(lam), label)


def test_kac_actions_match_reference_straightening():
    count = 0
    for m, n in [(1, 1), (2, 1), (1, 2), (2, 2), (3, 1), (1, 3)]:
        for first in combinations_with_replacement([1, 0, -1], m):
            for second in combinations_with_replacement([1, 0, -1], n):
                assert_kac_matches_reference(weight(m, n, first + second))
                count += 1
    assert count == 141
    assert_kac_matches_reference(parse_weight(3, 2, "1,0,-1|1,-1"))
    assert_kac_matches_reference(parse_weight(3, 1, "0,-2,-2|0"))  # L0 denominator 2


def reference_exterior_rows(m, n) -> dict:
    """The rows of ``_exterior_actions`` by the memoized recursion on tuples.

    a y_h y_rest = [a, y_h] y_rest + (-1)^{|a|} y_h a y_rest, with h the
    least element of S, memoized per (label, S); y_h is put in front of each
    term with its reorder sign.
    """
    g = gl_superalgebra(m, n)
    y_labels = [lab for lab in g.labels if g.z_degree[lab] == -1]
    y_pos = {lab: i for i, lab in enumerate(y_labels)}
    mn = len(y_labels)
    subsets = sorted((tuple(i for i in range(mn) if mask >> i & 1) for mask in range(1 << mn)),
                     key=lambda S: (len(S), S))
    memo = {}

    def prepend(h, terms):
        for (S, e), c in terms.items():
            if h not in S:
                pos = bisect_left(S, h)
                yield (S[:pos] + (h,) + S[pos:], e), -c if pos % 2 else c

    def act(label, S):
        cached = memo.get((label, S))
        if cached is not None:
            return cached
        out = {}
        deg = g.z_degree[label]
        if not S:
            if deg == -1:
                out[((y_pos[label],), None)] = 1
            elif deg == 0:
                out[((), label)] = 1
        else:
            h, rest = S[0], S[1:]
            for lab2, cb in g.bracket(label, y_labels[h]).items():
                axpy(out, act(lab2, rest).items(), cb)
            axpy(out, prepend(h, act(label, rest)), -1 if g.parity[label] else 1)
        return memo.setdefault((label, S), out)

    index = {S: i for i, S in enumerate(subsets)}
    return {label: [[(index[S2], e, c) for (S2, e), c in act(label, S).items()] for S in subsets]
            for label in g.labels}


def assert_exterior_rows_match_reference(m, n):
    table = supvar.modules._exterior_actions(m, n)
    reference = reference_exterior_rows(m, n)
    for label in gl_superalgebra(m, n).labels:
        # as lists: the same terms in the same order, so Kac columns keep their order
        assert table.rows[label] == reference[label], (m, n, label)


def test_closed_form_straightening_matches_the_recursion_term_for_term():
    shapes = [(m, n) for m in range(1, 10) for n in range(1, 10) if m * n <= 9]
    assert len(shapes) == 23
    for m, n in shapes:
        assert_exterior_rows_match_reference(m, n)


def column_order(cols):
    """Columns with their insertion order, as nested lists."""
    return [(j, list(col.items())) for j, col in cols.items()]


def reference_kac_columns(lam) -> dict:
    """K(lam)'s int columns, each summed from one generator of shifted pairs."""
    table = supvar.modules._exterior_actions(lam.m, lam.n)
    L0 = L0_module(lam)
    D = L0.dim
    right = {e: [list(cols.get(t, {}).items()) for t in range(D)] for e, cols in L0.actions.items()}
    right[None] = [[(t, L0.den)] for t in range(D)]
    actions = {}
    for label in gl_superalgebra(lam.m, lam.n).labels:
        cols = {}
        for j, terms in enumerate(table.rows[label]):
            for t in range(D) if terms else ():
                col: dict = {}
                axpy(col, ((i * D + r, c * x) for i, e, c in terms for r, x in right[e][t]), ONE)
                if col:
                    cols[j * D + t] = col
        actions[label] = cols
    return actions


def reference_tensor_columns(M, N, label) -> dict:
    """M tensor N's int columns for label, the M-free columns built apart and
    the N part added through a generator of shifted pairs."""
    dn = N.dim
    den = lcm(M.den, N.den)
    fm, fn = den // M.den, den // N.den
    m_cols, n_cols = M.actions.get(label, {}), N.actions.get(label, {})
    n_parts = {j: ([(r, fn * c) for r, c in n_cols[j].items()],
                   [(r, -fn * c) for r, c in n_cols[j].items()])
               for j in range(dn) if n_cols.get(j)}
    cols: dict = {}
    for i in range(M.dim):
        base = i * dn
        flip = 1 if (M.algebra.parity[label] and M.parities[i]) else 0
        mcol = m_cols.get(i)
        if not mcol:
            for j, parts in n_parts.items():
                cols[base + j] = {base + r: c for r, c in parts[flip]}
            continue
        for j in range(dn):
            col = {r * dn + j: fm * c for r, c in mcol.items()}
            if j in n_parts:
                axpy(col, ((base + r, c) for r, c in n_parts[j][flip]), ONE)
            if col:
                cols[base + j] = col
    return cols


def test_kac_and_tensor_columns_match_the_generator_built_reference():
    # the columns are summed from stored pairs at an offset; they must equal
    # the generator-built ones as item lists, dict order included
    for m, n, text in [(1, 1, "0|0"), (2, 2, "1,0|0,-1"), (2, 2, "-1,-1|1,1"), (2, 1, "2,1|0"),
                       (3, 2, "1,0,-1|1,-1"), (3, 1, "0,-2,-2|2")]:
        lam = parse_weight(m, n, text)
        K, reference = kac_module(lam), reference_kac_columns(lam)
        assert all(column_order(K.actions[label]) == column_order(reference[label])
                   for label in K.algebra.labels), text
    K0 = kac_module(parse_weight(2, 2, "0,0|0,0"))
    L = simple_module(parse_weight(2, 2, "1,0|0,-1"))
    Kd = kac_module(parse_weight(3, 1, "0,-2,-2|2"))  # den 2
    Ld = simple_module(parse_weight(3, 1, "0,-2,-2|2"))
    pairs = [(dual(K0), L), (L, dual(K0)), (K0, K0), (L, parity_shift(L)), (dual(Kd), Ld),
             (Ld, Kd), (trivial_module(K0.algebra), L)]
    for M, N in pairs:
        T = tensor(M, N)
        for label in M.algebra.labels:
            assert column_order(T.actions[label]) == column_order(
                reference_tensor_columns(M, N, label)), (M, N, label)


def test_kac_labels_read_in_reverse_give_the_forward_columns():
    # each read straightens its label on demand, the raising labels reading the
    # rows of g0 labels; the read order must not show
    lam = parse_weight(3, 2, "1,0,0|0,-1")
    labels = gl_superalgebra(3, 2).labels
    supvar.modules._exterior_actions.cache_clear()
    K = kac_module(lam)
    backward = {label: column_order(K.actions[label]) for label in reversed(labels)}
    gone = weakref.ref(K)
    del K
    assert gone() is None  # so the next kac_module builds a new module
    supvar.modules._exterior_actions.cache_clear()
    K = kac_module(lam)
    forward = {label: column_order(K.actions[label]) for label in labels}
    assert backward == forward
    assert list(K.actions) == list(labels)


def test_kac_labels_read_from_four_threads_match_sequential_read():
    lam = parse_weight(3, 2, "1,0,0|0,-1")
    supvar.modules._exterior_actions.cache_clear()
    K = kac_module(lam)
    expected = dict(K.actions)
    gone = weakref.ref(K)
    del K
    assert gone() is None  # so the next kac_module builds a new module
    supvar.modules._exterior_actions.cache_clear()
    K = kac_module(lam)
    labels = list(K.algebra.labels)
    orders = [labels, labels[::-1], labels[1::2] + labels[::2],
              sorted(labels, key=lambda lab: (lab[2], lab[1]))]
    barrier = threading.Barrier(4)
    seen = [None] * 4

    def read(k):
        barrier.wait()
        seen[k] = {label: K.actions[label] for label in orders[k]}

    threads = [threading.Thread(target=read, args=(k,)) for k in range(4)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # switch threads often, inside the builds
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert dict(K.actions) == expected
    # every reader got the one published object per label
    assert all(got[label] is K.actions[label] for got in seen for label in labels)


def test_action_column_reads_the_built_label_column(sweep_modules):
    # a column read before its label is built equals that label's column and
    # is published once; building the label drops the columns read so far
    sweep, _ = sweep_modules
    kacs = [M for _, _, name, M, _ in sweep if name.startswith("kac:")]
    assert len(kacs) == 25 + 75 + 225
    for K in kacs:
        fresh = _build_kac_module(K.meta["weight"], RunConfig.dimension_budget)
        for label in K.algebra.labels:
            expected = [K.actions[label].get(i, {}) for i in range(K.dim)]
            before = [action_columns(fresh, label, [i])[0] for i in range(K.dim)]
            assert before == expected, (K, label)
            assert all(a is b for a, b in zip(action_columns(fresh, label, range(K.dim)), before))
            assert label not in fresh.actions._built
            built = fresh.actions[label]
            assert label not in fresh.actions._columns
            after = action_columns(fresh, label, range(K.dim))
            assert after == expected
            assert all(col is built[i] for i, col in enumerate(after) if i in built)
    # a module with plain-dict actions reads them
    L = next(M for m, n, name, M, _ in sweep if (m, n) == (2, 2) and name.startswith("simple:")
             and M.dim > 1)
    assert all(action_columns(L, label, range(L.dim)) == [L.actions[label].get(i, {})
                                                         for i in range(L.dim)]
               for label in L.algebra.labels)


def test_verify_rep_gl3_kac_modules():
    for lam in [parse_weight(3, 2, "1,0,0|0,-1"), parse_weight(3, 3, "0,0,0|0,0,0")]:
        K = kac_module(lam)
        assert K.dim == {(3, 2): 384, (3, 3): 512}[(lam.m, lam.n)]
        ok, problems = verify_rep(K)
        assert ok, problems[:3]


def checked_form(K):
    """The int contravariant form of K as a dense matrix, after the adjointness check.

    It is an int multiple of the form, g d^k on layer k, with d = K.den and g
    the common denominator of the L0 inner product.  ``_form`` stores one
    sparse column per basis vector, with no zero entries.
    """
    G = _form(K)
    _check_form_adjointness(K, G)
    assert sorted(G) == list(range(K.dim))
    dense = [[ZERO] * K.dim for _ in range(K.dim)]
    for j, col in G.items():
        for i, x in col.items():
            assert x and isinstance(x, int)
            dense[i][j] = x
    return dense


def test_contravariant_form_values():
    K = kac_module(parse_weight(1, 1, "0|0"))
    G = checked_form(K)
    assert G[0][0] == 1  # the highest weight tensor has norm 1
    assert G[1][1] == 0  # y.v pairs to zero at weight zero
    K = kac_module(parse_weight(1, 1, "1|0"))
    G = checked_form(K)
    assert G[0][0] == 1
    assert G[1][1] == 1
    K = kac_module(parse_weight(2, 1, "2,1|1"))
    G = checked_form(K)
    assert G[0][0] == 1
    assert G == [list(col) for col in zip(*G)]


def test_form_blocks_over_fractional_actions():
    # L0(0,-2,-2) of gl(3) acts with denominator 2, so the layers of the form
    # carry different powers of it; adjointness ties each layer to the next
    lam = parse_weight(3, 1, "0,-2,-2|2")
    K = kac_module(lam)
    assert K.den == 2
    G = checked_form(K)
    assert G[0][0] == 1
    assert G == [list(col) for col in zip(*G)]
    assert (K.dim, simple_module(lam).dim) == (48, 9)


def test_form_check_runs_beyond_the_old_size_limit(monkeypatch):
    # every Kac form simple_module builds is checked: a form that is off by
    # one diagonal entry of a middle-layer vector, on a module of dim 96,
    # must be caught
    lam = parse_weight(2, 2, "2,0|0,-1")
    assert kac_module(lam).dim == 96
    original = supvar.modules._form

    def broken_form(K):
        G = original(K)
        # the first vector of the first two-element subset, y_S v_0
        i = K.meta["l0_dim"] * next(j for j, S in enumerate(K.meta["table"].subsets)
                                    if len(S) == 2)
        G[i][i] = G[i].get(i, 0) + 1
        return G

    simple_module(lam)
    monkeypatch.setattr(supvar.modules, "_form", broken_form)
    with pytest.raises(FormInconsistent):
        simple_module(lam)


def with_l0_gram(K, gram):
    """A new module equal to K but for the top-layer inner product: K itself may
    be held elsewhere (``kac_module`` returns the live module), so it is not edited."""
    return SuperModuleRep(K.algebra, K.parities, K.weights, K.actions,
                          basis_names=K.basis_names, meta={**K.meta, "l0_gram": gram}, den=K.den)


def test_form_symmetry_check_fires(monkeypatch):
    # K(1,0,-1|0) of gl(3|1) has dim 64 over an L0 of dim 8 whose zero weight
    # space is positions 3 and 4; a top-layer inner product that is not
    # symmetric there must be caught as such
    lam = parse_weight(3, 1, "1,0,-1|0")
    original = supvar.modules.kac_module

    def skewed_kac(lam, budget):
        K = original(lam, budget)
        assert (K.dim, K.meta["l0_dim"]) == (64, 8)
        assert [w.coords for w in K.weights[3:5]] == [(0, 0, 0, 0)] * 2
        gram = {t: dict(col) for t, col in K.meta["l0_gram"].items()}
        gram[3][4] = gram[3].get(4, 0) + 1
        return with_l0_gram(K, gram)

    monkeypatch.setattr(supvar.modules, "kac_module", skewed_kac)
    with pytest.raises(FormInconsistent, match="contravariant form block is not symmetric"):
        simple_module(lam)


def test_simple_module_rejects_a_corrupted_cartan_entry(monkeypatch):
    # the adjointness check reads each Cartan label as den times the weights
    # on the diagonal instead of forming its products: one entry off, on the
    # diagonal or beside it, must still be caught
    lam = parse_weight(2, 2, "1,0|0,-1")
    original = supvar.modules.kac_module
    for label, col, row in [(("E", 1, 1), 0, 0), (("E", 4, 4), 5, 5), (("E", 2, 2), 3, 7)]:
        def corrupted_kac(lam, budget, label=label, col=col, row=row):
            K = original(lam, budget)
            actions = {lab: {j: dict(c) for j, c in K.actions[lab].items()}
                       for lab in K.algebra.labels}
            entries = actions[label].setdefault(col, {})
            entries[row] = entries.get(row, 0) + K.den
            return SuperModuleRep(K.algebra, K.parities, K.weights, actions,
                                  basis_names=K.basis_names, meta=K.meta, den=K.den)

        monkeypatch.setattr(supvar.modules, "kac_module", corrupted_kac)
        with pytest.raises(FormInconsistent, match="Cartan"):
            simple_module(lam)
    monkeypatch.setattr(supvar.modules, "kac_module", original)
    simple_module(lam)


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
    # scaling the top-layer inner product scales every entry of the form by
    # the same factor and leaves the radical unchanged
    for text in ["1,0|0", "0,0|0", "2,1|0"]:
        lam = parse_weight(2, 1, text)
        K = kac_module(lam)
        G = _form(K)
        K3 = with_l0_gram(K, {t: {j: 3 * x for j, x in col.items()}
                              for t, col in K.meta["l0_gram"].items()})
        G3 = _form(K3)
        _check_form_adjointness(K3, G3)
        assert G3 == {j: {i: 3 * x for i, x in col.items()} for j, col in G.items()}
        columns = [G[j] for j in range(K.dim)]
        columns3 = [G3[j] for j in range(K.dim)]
        assert column_kernel(columns3) == column_kernel(columns)


def reference_quotient(K):
    """Kept Kac indices, int actions and den of K modulo its form radical, in two stages.

    Per weight block, ``column_kernel`` finds the radical; one span holds it
    and then the unit vectors e_p offered from the top position down, and
    every block vector's coordinates on the kept unit vectors are read off.
    """
    blocks: dict = {}
    for i, w in enumerate(K.weights):
        blocks.setdefault(w.coords, []).append(i)
    G = _form(K)
    kept, projections = [], {}
    for idxs in blocks.values():
        rows = [[G[i].get(j, 0) for j in idxs] for i in idxs]
        span = IncrementalSpan()
        for v in column_kernel(rows):
            span.add(v)
        units = {}  # acceptance index -> Kac index of a kept unit vector
        for p in reversed(range(len(idxs))):
            if span.add({p: 1}):
                units[span.dim - 1] = idxs[p]
        kept.extend(units.values())
        for p, i in enumerate(idxs):
            coords = span.express({p: 1})
            projections[i] = [(units[k], c) for k, c in coords.items() if k in units]
    kept.sort()
    new_index = {old: new for new, old in enumerate(kept)}
    actions = {}
    for label in K.algebra.labels:
        cols = {}
        for new_col, old in enumerate(kept):
            col: dict = {}
            for i, c in K.actions[label].get(old, {}).items():
                axpy(col, ((new_index[k], x) for k, x in projections[i]), c)
            if col:
                cols[new_col] = col
        actions[label] = cols
    den, actions = _integerize(actions)
    return kept, actions, den * K.den


def test_simple_module_matches_the_two_stage_reference_quotient(sweep_modules):
    sweep, _ = sweep_modules
    heads = [(lam, M) for _, _, name, M, lam in sweep if name.startswith("simple:")]
    # gl(3|1) 0,-2,-2|2 has K.den 2, so its form layers carry different scales
    # gl(3|2) 1,1,0|1,-1 has quotient den 2 over its Kac module of dim 576
    # gl(4|2) and gl(2|4) heads come from Kac forms of dim 2048
    heads += [(lam, simple_module(lam)) for lam in (parse_weight(3, 1, "0,-2,-2|2"),
                                                    parse_weight(3, 2, "1,0,0|0,-1"),
                                                    parse_weight(4, 2, "1,0,0,0|0,-1"),
                                                    parse_weight(2, 4, "1,0|0,0,0,-1"),
                                                    parse_weight(3, 2, "1,1,0|1,-1"))]
    for lam, L in heads:
        assert_simple_module_matches_reference_quotient(lam, L)
    L = heads[-1][1]
    assert (L.den, kac_module(heads[-1][0]).den, L.meta["kac_dim"]) == (2, 1, 576)


def assert_simple_module_matches_reference_quotient(lam, L):
    K = kac_module(lam)
    kept, actions, den = reference_quotient(K)
    assert L.basis_names == tuple(K.basis_names[i] for i in kept), format_weight(lam)
    assert (L.actions, L.den) == (actions, den), format_weight(lam)


def test_weight_spaces_group_the_basis_by_weight(sweep_modules):
    # by hand: each distinct weight, in the order of its first basis vector,
    # with every index of that weight, ascending
    sweep, _ = sweep_modules
    modules = [M for _, _, name, M, _ in sweep if not name.startswith("tensor:")]
    modules += [next(M for _, _, name, M, _ in sweep if name.startswith("tensor:")),
                dual(modules[-2])]
    assert [M.meta["kind"] for M in modules[-4:]] == ["kac", "simple", "tensor", "dual"]
    for M in modules:
        by_hand = [(w.coords, [i for i, v in enumerate(M.weights) if v == w])
                   for w in dict.fromkeys(M.weights)]
        assert list(M.weight_spaces.items()) == by_hand, M
        assert M.weight_spaces is M.weight_spaces


def test_simple_module_reads_the_quotient_off_one_elimination(monkeypatch, sweep_modules):
    # the kernel's relations are the projections: no form column is
    # reduced a second time to express it over the kept ones
    sweep, _ = sweep_modules
    lams = [next(lam for _, _, name, _, lam in sweep if name.startswith("simple:")),
            parse_weight(3, 2, "1,1,0|1,-1")]
    # the held Kac modules are reused, so no L0 closure (which expresses) runs below
    held = [kac_module(lam) for lam in lams]

    def express(self, vec):
        raise AssertionError("simple_module called IncrementalSpan.express")

    monkeypatch.setattr(IncrementalSpan, "express", express)
    for lam, K in zip(lams, held):
        assert simple_module(lam).meta["kac_dim"] == K.dim


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
                for r, c in L.actions[lab].get(i, {}).items():
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
    actions = fraction_actions(K)
    label = ("E", 2, 1)
    col = actions[label].setdefault(0, {})
    col[0] = col.get(0, ZERO) + ONE
    den, actions = _integerize(actions)
    broken = SuperModuleRep(K.algebra, K.parities, K.weights, actions, den=den)
    ok, problems = verify_rep(broken)
    assert not ok and problems


def test_verify_rep_reports_non_int_entries():
    # actions are ints over den; a Fraction or a float entry is reported
    # before any product runs, instead of failing later inside an elimination
    K = kac_module(parse_weight(1, 1, "1|0"))
    label = ("E", 2, 1)
    for bad in (Fraction(1, 2), Fraction(2), 0.5, 1.0):
        actions = {lab: {j: dict(col) for j, col in cols.items()} for lab, cols in K.actions.items()}
        j, col = next(iter(actions[label].items()))
        i = next(iter(col))
        col[i] = bad
        M = SuperModuleRep(K.algebra, K.parities, K.weights, actions, den=K.den)
        ok, problems = verify_rep(M)
        assert not ok
        assert problems == [f"entry {bad!r} of {label} on column {j} row {i} is not an int"]
    for den in (0, -1, Fraction(1, 2)):
        ok, problems = verify_rep(SuperModuleRep(K.algebra, K.parities, K.weights, K.actions,
                                                 den=den))
        assert not ok and problems == [f"den {den!r} is not a positive int"]


def odd_square_module(s):
    """gl(1|1) on v0 (even), v1 (odd), v2 (even) with s = +1: E12 sends v0 -> v1 -> v2
    and E21 = 0, or s = -1: the same with E12 and E21 swapped.

    It satisfies every bracket except [E, E] = 0 = 2 E^2 for the acting E.
    """
    g = gl_superalgebra(1, 1)
    weights = [weight(1, 1, (s * k, -s * k)) for k in range(3)]
    acting = ("E", 1, 2) if s == 1 else ("E", 2, 1)
    actions = {
        ("E", 1, 1): {k: {k: s * k} for k in (1, 2)},
        ("E", 1, 2): {},
        ("E", 2, 1): {},
        ("E", 2, 2): {k: {k: -s * k} for k in (1, 2)},
    }
    actions[acting] = {0: {1: 1}, 1: {2: 1}}
    return SuperModuleRep(g, [0, 1, 0], weights, actions)


def test_verify_rep_checks_odd_squares():
    M = odd_square_module(1)
    ok, problems = verify_rep(M)
    assert not ok
    assert problems == [f"bracket compatibility fails on ({('E', 1, 2)}, {('E', 1, 2)}) column 0"]


def bracket_failures(M, pairs):
    """(a, b, least failing column) for the pairs of ``pairs`` on which
    A_a A_b - s A_b A_a = d [a, b] fails, by dict-of-dict products, as a
    generator, so a caller after the verdict stops at the first."""
    g, d = M.algebra, M.den
    A = {label: M.actions.get(label, {}) for label in g.labels}
    identity = {i: {i: 1} for i in range(M.dim)}
    for a, b in pairs:
        s = -1 if (g.parity[a] and g.parity[b]) else 1
        out = {}
        _int_mul_add(out, A[a], A[b], 1)
        _int_mul_add(out, A[b], A[a], -s)
        for e, c in g.bracket(a, b).items():
            _int_mul_add(out, A[e], identity, -d * c)
        j = _nonzero_column(out)
        if j is not None:
            yield a, b, j


def bracket_messages(M):
    """``verify_rep``'s bracket messages for M, read off the dict reference on
    the Serre pairs."""
    return [f"bracket compatibility fails on ({a}, {b}) column {j}"
            for a, b, j in bracket_failures(M, M.algebra.serre_pairs)]


def all_pairs(g):
    """Every label pair a <= b, a = b only for odd a, in label order."""
    return [(a, b) for k, a in enumerate(g.labels) for b in g.labels[k if g.parity[a] else k + 1:]]


def generator_pairs(g):
    """The pairs of ``all_pairs`` with no Cartan label E_{i,i} and one Chevalley
    generator E_{i,i+1} or E_{i+1,i}: what ``verify_rep`` checked before it checked
    a Serre presentation, kept as a second reference."""
    def gen(lab):
        return abs(lab[1] - lab[2]) == 1
    return [(a, b) for a, b in all_pairs(g)
            if a[1] != a[2] and b[1] != b[2] and (gen(a) or gen(b))]


def all_pairs_bracket_failures(M):
    """The failing pairs, in label order, of the bracket identity over every label
    pair, each with its least failing column: the all-pairs reference for
    ``verify_rep``, which checks Serre pairs only."""
    return list(bracket_failures(M, all_pairs(M.algebra)))


@lru_cache(maxsize=None)
def reference_pairs(g):
    """``all_pairs(g)`` and ``generator_pairs(g)``, after checking once per
    algebra that the second is a subset of the first."""
    pairs, generators = all_pairs(g), generator_pairs(g)
    assert set(generators) <= set(pairs)
    return pairs, generators


def assert_same_verdict(M):
    """verify_rep, the all-pairs and the generator-pair references agree, and on
    a failure verify_rep names the failing Serre pairs and least columns the
    dict reference finds; returns the verdict.

    The generator pairs are a subset of all pairs, so when all pairs pass they
    pass too; the generator-pair reference runs only on an all-pairs failure.
    """
    pairs, generators = reference_pairs(M.algebra)
    ok, problems = verify_rep(M)
    assert all(p.startswith("bracket compatibility fails") for p in problems), problems[:3]
    failure = next(bracket_failures(M, pairs), None)
    assert ok == (failure is None), (problems[:3], failure)
    if failure is not None:
        assert next(bracket_failures(M, generators), None) is not None, (problems[:3], failure)
        assert problems == bracket_messages(M), problems[:3]
    return ok


def single_entry_corruptions(M):
    """M with den added to one entry of one non-Cartan label, at the first and at
    the last position (column, row) that respects weights and parities."""
    g = M.algebra
    rows = {}  # (weight, parity) -> basis indices, ascending
    for j, w in enumerate(M.weights):
        rows.setdefault((w.coords, M.parities[j]), []).append(j)
    for x in g.labels:
        if x[1] == x[2]:
            continue
        root, px = g.weight_of[x].coords, g.parity[x]
        targets = [rows.get((tuple(map(operator.add, w.coords, root)), (p + px) % 2), [])
                   for w, p in zip(M.weights, M.parities)]
        cols = [i for i in range(M.dim) if targets[i]]
        places = {(cols[0], targets[cols[0]][0]), (cols[-1], targets[cols[-1]][-1])} if cols else ()
        for i, j in sorted(places):
            actions = {lab: M.actions[lab] for lab in g.labels}
            actions[x] = {c: dict(col) for c, col in M.actions[x].items()}
            col = actions[x].setdefault(i, {})
            col[j] = col.get(j, 0) + M.den
            if not col[j]:
                del col[j]
            yield SuperModuleRep(g, M.parities, M.weights, actions, den=M.den)


def test_generator_pairs_match_all_pairs_on_the_acceptance_sweep(sweep_modules):
    sweep, _ = sweep_modules
    for m, n, name, M, _ in sweep:
        assert assert_same_verdict(M), f"gl({m}|{n}) {name}"


def test_generator_pairs_match_all_pairs_on_corruptions():
    modules = [kac_module(parse_weight(2, 2, "1,0|0,-1")),
               simple_module(parse_weight(2, 2, "1,0|0,-1")),
               kac_module(parse_weight(3, 2, "0,0,0|0,0")),
               simple_module(parse_weight(3, 2, "1,0,0|0,-1"))]
    corrupted = 0
    for M in modules:
        assert assert_same_verdict(M)
        for C in single_entry_corruptions(M):
            assert not assert_same_verdict(C)
            corrupted += 1
    assert corrupted == 2 * (12 + 12 + 20 + 20)
    # single entries are also caught by pairs of other generators; these two
    # fail only on the square of one odd generator
    for s in (1, -1):
        assert not assert_same_verdict(odd_square_module(s))


@pytest.mark.parametrize("m, n", [(3, 3), (4, 2), (2, 4)])
def test_serre_pairs_match_both_references_on_corruptions(m, n):
    # K(0|0) of dimension 2^(mn); the quartic pair (e_m, E_{m-1,m+2}) for
    # m = n, m > n and m < n
    K = kac_module(weight(m, n, [0] * (m + n)))
    assert K.dim == 2 ** (m * n)
    assert assert_same_verdict(K)
    verdicts = [assert_same_verdict(C) for C in single_entry_corruptions(K)]
    assert len(verdicts) == 2 * ((m + n) ** 2 - m - n) and not any(verdicts)


def test_packed_check_matches_the_dict_reference_on_sweep_corruptions(sweep_modules):
    # every seventh Kac and simple module of the sweep (all three algebras), and
    # each single-entry corruption of it: the verdict, the failing pairs and
    # their least columns equal the dict-of-dict reference
    sweep, _ = sweep_modules
    heads = [M for _, _, name, M, _ in sweep if name.startswith(("kac:", "simple:"))][::7]
    verdicts = []  # a corruption may be a representation again; none here is
    for M in heads:
        assert verify_rep(M) == (True, [])
        for C in single_entry_corruptions(M):
            ok, problems = verify_rep(C)
            assert problems == bracket_messages(C) and ok == (not problems), problems[:3]
            verdicts.append(ok)
    assert (len(heads), len(verdicts), sum(verdicts)) == (93, 1748, 0)


def scaled(M, f):
    """M with its actions and den multiplied by f: the same representation."""
    actions = {label: {i: {j: f * c for j, c in col.items()} for i, col in M.actions[label].items()}
               for label in M.algebra.labels}
    return SuperModuleRep(M.algebra, M.parities, M.weights, actions, den=f * M.den)


def test_packed_check_is_exact_on_entries_past_64_bits():
    # the slot width grows with the entries and den: scaled by 2^64 + 1 the
    # module still passes, and one entry moved by the scaled den fails at the
    # reference's pairs and columns
    for M in (simple_module(parse_weight(2, 2, "1,0|0,-1")),
              kac_module(parse_weight(3, 2, "1,0,0|0,-1"))):
        H = scaled(M, 2**64 + 1)
        assert H.den > 2**64 and verify_rep(H) == (True, [])
        verdicts = []
        for C in single_entry_corruptions(H):
            ok, problems = verify_rep(C)
            assert problems == bracket_messages(C), problems[:3]
            verdicts.append(ok)
        assert len(verdicts) == 2 * len([x for x in M.algebra.labels if x[1] != x[2]])
        assert not any(verdicts)


@pytest.mark.parametrize("k", [16, 32, 64, 128])
def test_a_failure_that_fixed_width_slots_would_carry_away_is_reported(k):
    # gl(1|1) on e0, e1 (even, weight 0) and e2, e3 (odd, weight (1,-1)):
    # E12 sends e0 -> e2, e1 -> e3 and E21 sends e2 -> 2^k e0 - e1, so
    # [E12, E21] = E11 + E22 fails on column 0 by (2^k, -1), which slots of
    # width k would pack to 2^k - 2^k = 0
    g = gl_superalgebra(1, 1)
    weights = [weight(1, 1, (0, 0))] * 2 + [weight(1, 1, (1, -1))] * 2
    actions = {("E", 1, 1): {2: {2: 1}, 3: {3: 1}}, ("E", 1, 2): {0: {2: 1}, 1: {3: 1}},
               ("E", 2, 1): {2: {0: 2**k, 1: -1}}, ("E", 2, 2): {2: {2: -1}, 3: {3: -1}}}
    M = SuperModuleRep(g, [0, 0, 1, 1], weights, actions)
    expected = [f"bracket compatibility fails on ({('E', 1, 2)}, {('E', 2, 1)}) column 0"]
    assert bracket_messages(M) == expected
    assert verify_rep(M) == (False, expected)


def test_a_weight_break_is_reported_without_bracket_messages():
    # the packing and the Serre-pair proof read the weight grading, so the
    # bracket identities run only after the parity, weight and Cartan checks
    # pass; here they fail too, by the dict reference, and are not reported
    K = kac_module(parse_weight(2, 2, "1,0|0,-1"))
    label = ("E", 1, 2)  # even: e_i -> e_i keeps the parity and breaks the weight
    i = next(i for i, col in K.actions[label].items() if col)
    actions = {lab: K.actions[lab] for lab in K.algebra.labels}
    actions[label] = {**K.actions[label], i: {i: K.den}}
    M = SuperModuleRep(K.algebra, K.parities, K.weights, actions, den=K.den)
    assert verify_rep(M) == (False, [f"weight breaks: {label} sends {i} to {i}"])
    assert bracket_messages(M)


def copied_actions(M):
    return {lab: {i: dict(col) for i, col in M.actions.get(lab, {}).items()}
            for lab in M.algebra.labels}


@pytest.mark.parametrize("m, n, text", [(1, 1, "1|0"), (2, 1, "2,0|0")])
def test_verify_rep_rejects_rows_at_minus_one(m, n, text):
    # row -1 would read the parity and weight of row dim - 1, which the
    # moved entries match, so only the index check can see the move
    K = kac_module(parse_weight(m, n, text))
    actions, last, expected = copied_actions(K), K.dim - 1, []
    for label in [lab for lab in K.algebra.labels if lab[1] != lab[2]]:
        for i, col in actions[label].items():
            if last in col:
                col[-1] = col.pop(last)
                expected.append(f"index breaks: {label} sends {i} to -1, outside range(0, {K.dim})")
    assert expected
    M = SuperModuleRep(K.algebra, K.parities, K.weights, actions, den=K.den)
    assert verify_rep(M) == (False, expected)


def test_verify_rep_rejects_a_column_at_minus_one():
    # a copy of a valid column would pass every check read at column dim - 1
    K = kac_module(parse_weight(2, 1, "2,0|0"))
    label = ("E", 1, 2)
    for copied in (dict(K.actions[label][K.dim - 1]), {}):
        actions = copied_actions(K)
        actions[label][-1] = copied
        M = SuperModuleRep(K.algebra, K.parities, K.weights, actions, den=K.den)
        expected = f"index breaks: {label} has column -1, outside range(0, 12)"
        assert verify_rep(M) == (False, [expected])


def test_verify_rep_rejects_indices_past_the_basis():
    T = trivial_module(gl_superalgebra(1, 1))
    label = ("E", 1, 2)
    for col, row, message in [(3, 0, "has column 3"), (0, 1, "sends 0 to 1")]:
        actions = copied_actions(T)
        actions[label][col] = {row: 1}
        M = SuperModuleRep(T.algebra, T.parities, T.weights, actions)
        assert verify_rep(M) == (False, [f"index breaks: {label} {message}, outside range(0, 1)"])


def test_algebra_not_generated_by_chevalley_generators_is_rejected():
    # the span of E11, E22, E33, E13 is closed under the bracket, but none of
    # its labels is a Chevalley generator, so no definition pair reaches E13
    labels = [("E", 1, 1), ("E", 2, 2), ("E", 3, 3), ("E", 1, 3)]
    h = supvar.algebra.LieSuperalgebraData("borel-piece", labels, 3, 1)
    with pytest.raises(InvariantBroken, match="no definition reaches \\('E', 1, 3\\)"):
        verify_rep(trivial_module(h))


def test_algebra_with_cartan_off_the_recorded_weights_is_rejected():
    # the table is changed after construction, which builds it from the
    # labels: E11 now acts on E12 by -1, the E11-coordinate of E21's weight
    g = gl_superalgebra(1, 1)
    h = supvar.algebra.LieSuperalgebraData("bad-weights", g.labels, 1, 1)
    h.structure = {**g.structure, (("E", 1, 1), ("E", 1, 2)): {("E", 1, 2): -1}}
    with pytest.raises(InvariantBroken, match="by a recorded weight"):
        h.serre_pairs


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


def test_one_weight_object_per_distinct_weight():
    # Kac modules, tensor products and duals build each distinct weight once
    lam = parse_weight(2, 2, "1,0|0,-1")
    K, L = kac_module(lam), simple_module(lam)
    L0, table = L0_module(lam), supvar.modules._exterior_actions(2, 2)
    DL = dual(L)
    T, DK = tensor(K, DL), dual(K)
    assert K.weights == tuple(weight(2, 2, offset) + w for offset in table.offsets
                              for w in L0.weights)
    assert T.weights == tuple(u + w for u in K.weights for w in DL.weights)
    assert DK.weights == tuple(-w for w in K.weights)
    for M in (K, DL, T, DK):
        first: dict = {}
        assert all(first.setdefault(w.coords, w) is w for w in M.weights)
        assert len(set(map(id, M.weights))) == len(M.weight_spaces) < M.dim


def test_algebra_mismatch():
    with pytest.raises(AlgebraMismatch):
        tensor(trivial_module(gl_superalgebra(1, 1)), trivial_module(gl_superalgebra(2, 1)))


def test_algebras_that_share_a_name_but_not_their_labels_do_not_combine():
    # tensoring over the diagonal of gl(1|1) would drop the odd actions of K
    h = supvar.algebra.LieSuperalgebraData("gl(1|1)", [("E", 1, 1), ("E", 2, 2)], 1, 1)
    with pytest.raises(AlgebraMismatch, match="not the same labels"):
        tensor(trivial_module(h), kac_module(parse_weight(1, 1, "0|0")))
    renamed = supvar.algebra.LieSuperalgebraData("renamed", gl_superalgebra(1, 1).labels, 1, 1)
    assert tensor(trivial_module(renamed), kac_module(parse_weight(1, 1, "0|0"))).dim == 2


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
