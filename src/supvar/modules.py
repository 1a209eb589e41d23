"""Explicit supermodules for gl(m|n) with exact rational actions, stored as ints.

A module stores int sparse columns over one positive denominator ``den``:
the action of a label is ``actions[label] / den``.  Rationals enter only
through ``_integerize``, on the L0 closure; every other construction and
every reader works on the ints and ``den``, and ``dump_module`` formats
``Fraction(x, den)`` itself.
The L0 inner product and the contravariant form are int sparse columns
too.  There is no dense matrix form.

Construction chain:

* ``L0_module`` builds the simple gl(m) x gl(n) module of a dominant integral
  highest weight.  Each block weight is shifted by a power of the determinant
  character to a polynomial weight, the highest-weight cyclic submodule is
  extracted from a tensor power of the natural representation by exact
  closure under the lowering operators, and the determinant twist is undone
  on the diagonal actions.

* ``kac_module`` induces from L0 inflated to the parabolic g0 + g1.  The PBW
  basis is y_S tensor v with S a subset of the mn odd negative root vectors
  E_{j,i} (i <= m < j) in a fixed row-major order, so as a g0-module K is
  Lambda(g_-1) tensor L0.  Straightening (supercommute the acting element
  past the monomial, let g1 annihilate the top layer and g0 act on L0 at the
  right end) touches only the Lambda(g_-1) factor, and every gl(m|n)
  structure constant is an integer: it runs once per (m, n) on the subsets
  alone, as int bitmasks, into a cached integer table, and each action is
  that table combined with the int L0 actions, over the L0 denominator.
  Each z-degree has its own rule: g_-1 wedges, g0 acts as a derivation,
  and g1 takes one pass over the subsets that reads the g0 rows.  Both
  steps run on first read: the table straightens a label's row the first
  time a Kac module asks for it, and a Kac module sums a label's int
  columns the first time a reader asks for them, or one column at a time
  (``action_columns``), so a reader of a few columns pays for those alone:
  the rank test reads the 2r labels of the x_t on its deciding blocks only.
  Weights, parities and basis names are built up front from per-subset int
  offsets and name prefixes the table computes once.  The table is the one
  record of the PBW layout: basis vector j D + t is y_{S_j} v_t, with D the
  L0 dimension, and a Kac module carries the table in its ``meta``.

* ``simple_module`` is the quotient of the Kac module by the radical of its
  contravariant form.  The form pairs weight spaces orthogonally, declares
  the top layer to carry the inner product inherited from the tensor-power
  construction (up to a positive factor, which leaves the radical alone),
  and satisfies <a.u, u'> = <u, tau(a).u'> for the transpose
  tau(E_ab) = E_ba; the radical is then the maximal proper submodule.
  The form is one sparse int matrix, stored by columns; ``column_kernel``
  takes its columns from the highest position down.  The independent ones
  are the kept basis, and each dependent column's relation is its basis
  vector's projection to the kept coordinates; the quotient columns sum
  those in ints over one denominator, divided once by their content.

Every module groups its basis by weight once, on first read
(``SuperModuleRep.weight_spaces``), and every reader that works one weight
space at a time reads that grouping.

All reps are immutable after construction.  The actions of Kac modules,
duals and tensor products only gain labels on first read, and those of Kac
modules single columns too, each fixed once published, so a reader of a few
labels (the Ext complex) or columns (the rank test) pays for those alone;
``parity_shift`` and ``direct_sum`` build eagerly.
Kac modules are shared while held: ``kac_module(lam, budget)`` returns the
module of that key that some caller still holds, columns already read
included, so ``simple_module(lam)`` beside a held K(lam) reuses it.  The
table of live modules holds its values weakly, so a module goes with its
last holder and a long run keeps nothing it no longer reads; two threads
racing on one key get equal modules.  So no reader may edit a module in
place.

Both representation checks are sparse matrix identities over the integers,
on the stored int actions, and the form is filled from the same ints.
Adjointness G A_a = A_{tau a}^T G is checked on every Kac form
``simple_module`` builds, whatever its size, on the int form itself: each
layer carries its own power of den, so a label that changes the layer takes
that power as one int factor.  G is symmetric (asserted entry by entry), so
the identity for tau(a) is the transpose of the one for a and each pair
{a, tau a} is checked once.  A Cartan label is checked to act by den times
the weights instead, which implies its identity
(``_check_form_adjointness``).  ``verify_rep`` checks A_a A_b - s A_b A_a
= A_[a,b], s = (-1)^{|a||b|}, on the pairs of a Serre presentation; its
docstring proves that they, with the parity, weight and Cartan checks, imply
every pair.
"""

from __future__ import annotations

from collections.abc import Mapping
from fractions import Fraction
from functools import cached_property, lru_cache
from itertools import permutations
from math import gcd, lcm
from operator import add
from typing import NamedTuple
from weakref import WeakValueDictionary

from .algebra import (LieSuperalgebraData, detecting_subalgebra, gl_even_subalgebra,
                      gl_superalgebra, same_algebra)
from .config import RunConfig
from .errors import (
    AlgebraMismatch,
    ConstructionOverflow,
    FormInconsistent,
    InvariantBroken,
    NotDominant,
)
from .linalg import ONE, IncrementalSpan, axpy, column_kernel, format_scalar, span_dim
from .roots import Weight, dim_L0, format_weight, is_dominant_integral, weight, zero_weight


class SuperModuleRep:
    """A finite dimensional supermodule with weight-labeled basis."""

    def __init__(self, algebra: LieSuperalgebraData, parities, weights, actions,
                 basis_names=None, meta=None, den: int = 1):
        self.algebra = algebra
        self.parities = tuple(parities)
        self.weights = tuple(weights)
        # actions: label -> dict[col] -> dict[row] -> int, over den > 0.  A
        # plain dict, except on Kac modules, duals and tensor products: there
        # a read-only Mapping that builds a label's columns on first read
        # (``_OnFirstRead``)
        self.actions = actions
        self.den = den
        self.basis_names = tuple(basis_names) if basis_names else tuple(
            f"b{i}" for i in range(len(self.parities))
        )
        self.meta = dict(meta or {})

    @property
    def dim(self) -> int:
        return len(self.parities)

    @property
    def superdimension(self) -> int:
        return sum(1 if p == 0 else -1 for p in self.parities)

    @cached_property
    def weight_spaces(self) -> dict:
        """Weight coordinates -> the ascending basis indices of that weight.

        Weights come in the order of their first basis vector.  The one
        grouping of the basis by weight: the contravariant form, the cochain
        slices, ``vanishing_bound`` and the rank test's blocks read it.
        """
        spaces: dict = {}
        for i, w in enumerate(self.weights):
            spaces.setdefault(w.coords, []).append(i)
        return spaces

    @cached_property
    def _square_eigenvalues(self) -> dict:
        """Basis indices grouped by the eigenvalues of x_1^2, ..., x_r^2 on them.

        With (E_ab, E_ba) the labels of x_t (``generator_labels``), x_t^2 =
        E_aa + E_bb acts on the weight space of mu by mu_a + mu_b, an int on
        integral weights; each group lists its weight spaces in turn.  Read
        by the zero-block rank test (``support``).
        """
        det = detecting_subalgebra(self.algebra.m, self.algebra.n)
        pairs = [det.generator_labels(t)[0][1:] for t in range(1, det.r + 1)]
        groups: dict = {}
        for coords, idxs in self.weight_spaces.items():
            key = tuple(coords[a - 1] + coords[b - 1] for a, b in pairs)
            groups.setdefault(key, []).extend(idxs)
        return groups

    @cached_property
    def _rank_plans(self) -> dict:
        """Nonzero pattern of a point -> the rank test's plan for it (``support._rank_plan``)."""
        return {}

    def __repr__(self):
        return f"SuperModuleRep(dim={self.dim}, algebra={self.algebra.name})"


class _OnFirstRead(Mapping):
    """Read-only map over fixed keys whose values are built on first read.

    ``build(key)`` must be a pure function of the key.  A first read builds
    the value privately and publishes it with one ``dict.setdefault``, so
    readers racing on one key all get the first published value, which
    equals what a sequential read builds.  Iteration follows the key order
    given.  With ``build_column(key, i) == build(key).get(i, {})``,
    ``columns(key, idxs)`` of a value not yet built builds those columns
    alone and publishes each by the same rule; building the value drops
    them.
    """

    __slots__ = ("_keys", "_build", "_built", "_build_column", "_columns")

    def __init__(self, keys, build, build_column=None):
        self._keys = dict.fromkeys(keys)
        self._build = build
        self._built: dict = {}
        self._build_column = build_column
        self._columns: dict = {}

    def __getitem__(self, key):
        try:
            return self._built[key]
        except KeyError:
            if key not in self._keys:
                raise
        value = self._built.setdefault(key, self._build(key))
        self._columns.pop(key, None)
        return value

    def columns(self, key, idxs) -> list:
        built = self._built.get(key)
        if built is None and self._build_column is not None and key in self._keys:
            cols = self._columns.setdefault(key, {})
            out = []
            for i in idxs:
                col = cols.get(i)
                out.append(cols.setdefault(i, self._build_column(key, i)) if col is None else col)
            return out
        built = self[key] if built is None else built
        return [built.get(i, {}) for i in idxs]

    def __iter__(self):
        return iter(self._keys)

    def __len__(self):
        return len(self._keys)


def action_columns(M: SuperModuleRep, label, idxs) -> list:
    """Columns idxs of M's stored int action of label; on a Kac module, only those are built."""
    if isinstance(M.actions, _OnFirstRead):
        return M.actions.columns(label, idxs)
    cols = M.actions.get(label, {})
    return [cols.get(i, {}) for i in idxs]


def _empty_actions(algebra) -> dict:
    return {label: {} for label in algebra.labels}


def trivial_module(algebra: LieSuperalgebraData) -> SuperModuleRep:
    return SuperModuleRep(
        algebra, [0], [zero_weight(algebra.m, algebra.n)], _empty_actions(algebra),
        basis_names=["1"], meta={"kind": "trivial"},
    )


# ---------------------------------------------------------------------------
# simple gl(k) factors inside tensor powers of the natural representation


def _apply_unit_tensor(a: int, b: int, vec: dict) -> dict:
    """E_ab acting on a tensor-power vector {index tuple: coeff} (1-based)."""
    out: dict = {}
    for idx, coeff in vec.items():
        axpy(out, ((idx[:pos] + (a,) + idx[pos + 1 :], coeff)
                   for pos, entry in enumerate(idx) if entry == b), 1)
    return out


def _highest_weight_tensor(mu: tuple[int, ...]) -> dict:
    """Antisymmetrized column tensors for the partition mu (mu_k = 0 allowed)."""
    vec = {(): 1}
    height = len(mu)
    width = mu[0] if mu else 0
    for col in range(1, width + 1):
        h = sum(1 for part in mu if part >= col)
        column: dict = {}
        for perm in permutations(range(1, h + 1)):
            sign = 1
            perm_list = list(perm)
            for i in range(len(perm_list)):
                for j in range(i + 1, len(perm_list)):
                    if perm_list[i] > perm_list[j]:
                        sign = -sign
            column[perm] = sign
        vec = {
            i1 + i2: c1 * c2 for i1, c1 in vec.items() for i2, c2 in column.items()
        }
    return vec


def _gl_factor_module(k: int, block: tuple, budget: int):
    """Simple GL(k) module data for a weakly decreasing integer weight.

    Returns (dim, weights, action cols dict[(a,b)] -> cols, gram); the
    actions are Fractions, and gram is the tensor-power inner product on the
    int closure basis, as int sparse columns {i: {j: x}}, zeros not stored.
    """
    shift = int(block[-1])
    mu = tuple(int(c - shift) for c in block)
    degree = sum(mu)
    if k**degree > budget:
        raise ConstructionOverflow(
            f"tensor power dimension {k}**{degree} exceeds budget {budget}"
        )
    hw = _highest_weight_tensor(mu)
    span = IncrementalSpan()
    span.add(hw)
    basis_vecs = [hw]
    queue = [hw]
    lowering = [(i + 1, i) for i in range(1, k)]
    while queue:
        v = queue.pop(0)
        for (a, b) in lowering:
            w = _apply_unit_tensor(a, b, v)
            if w and span.add(w):
                basis_vecs.append(w)
                queue.append(w)
    dim = len(basis_vecs)
    actions = {}
    for a in range(1, k + 1):
        for b in range(1, k + 1):
            cols = {}
            for col, v in enumerate(basis_vecs):
                w = _apply_unit_tensor(a, b, v)
                if a == b and shift:
                    axpy(w, v.items(), shift)
                if not w:
                    continue
                coords = span.express(w)
                if coords is None:
                    raise InvariantBroken("lowering closure is not action stable")
                cols[col] = {r: c for r, c in coords.items() if c}
            actions[(a, b)] = cols
    weights = []
    for v in basis_vecs:
        idx = next(iter(v))
        weights.append(tuple(idx.count(i) + shift for i in range(1, k + 1)))
    gram = {i: {j: x for j, v in enumerate(basis_vecs)
                if (x := sum(c * v.get(t, 0) for t, c in u.items()))}
            for i, u in enumerate(basis_vecs)}
    return dim, weights, actions, gram


def L0_module(lam: Weight, budget: int = RunConfig.dimension_budget) -> SuperModuleRep:
    """Simple gl(m) x gl(n) module of highest weight lam, even-concentrated.

    The module carries a ``gram`` entry in ``meta``: the inner product
    inherited from the tensor-power construction, the Kronecker product of
    the factors', as int sparse columns {i: {j: x}} with no stored zeros.  It
    seeds the top layer of the contravariant form on Kac modules.  It is not
    normalized, but a positive factor scales the whole form and changes
    neither its radical nor the quotient coordinates.
    """
    if not is_dominant_integral(lam):
        raise NotDominant(f"{format_weight(lam)} is not dominant integral")
    m, n = lam.m, lam.n
    algebra = gl_even_subalgebra(m, n)
    d1, w1, act1, gram1 = _gl_factor_module(m, lam.first_block, budget)
    d2, w2, act2, gram2 = _gl_factor_module(n, lam.second_block, budget)
    dim = d1 * d2
    if dim != dim_L0(lam):
        raise InvariantBroken("constructed dimension disagrees with the Weyl formula")

    def pair(i, j):
        return i * d2 + j

    actions = {}
    for label in algebra.labels:
        _, a, b = label
        cols: dict = {}
        if a <= m and b <= m:
            for i, entries in act1[(a, b)].items():
                for j in range(d2):
                    cols[pair(i, j)] = {pair(r, j): v for r, v in entries.items()}
        else:
            for j, entries in act2[(a - m, b - m)].items():
                for i in range(d1):
                    cols[pair(i, j)] = {pair(i, r): v for r, v in entries.items()}
        actions[label] = cols
    weights = [
        weight(m, n, w1[i] + w2[j]) for i in range(d1) for j in range(d2)
    ]
    gram = {
        pair(i1, i2): {pair(j1, j2): x1 * x2
                       for j1, x1 in gram1[i1].items() for j2, x2 in gram2[i2].items()}
        for i1 in range(d1) for i2 in range(d2)
    }
    den, actions = _integerize(actions)
    return SuperModuleRep(
        algebra, [0] * dim, weights, actions,
        basis_names=[f"v{i}" for i in range(dim)],
        meta={"kind": "l0", "weight": lam, "gram": gram}, den=den,
    )


# ---------------------------------------------------------------------------
# Kac modules as Lambda(g_-1) tensor L0


class _ExteriorTable(NamedTuple):
    y_labels: list     # the labels of g_-1, y_h at position h, in label order
    subsets: list      # subsets S of odd negative root positions, in PBW order
    rest: list         # per subset S, the position of S minus its least element
    offsets: list      # per subset, sum of the weights of its y_h, as int coordinates
    prefixes: list     # per subset, its basis-name prefix "y[...]"
    rows: Mapping      # label -> per column subset, the terms (i, e, c)


@lru_cache(maxsize=None)
def _exterior_actions(m: int, n: int) -> _ExteriorTable:
    """PBW straightening on Lambda(g_-1) alone, as integer terms.

    Per label of gl(m|n) and column subset j, ``rows`` holds the terms
    (i, e, c): the label sends y_{S_j} v to c y_{S_i} (e.v), where e is the
    g0 label acting on L0 at the right end, or None for v itself.  A label's
    row is built on its first read, on subsets as int bitmasks, by one rule
    per z-degree; the brackets [label, y_h] are the ints 1 and -1
    ``LieSuperalgebraData`` builds from the matrix units.

    * z = -1: y_k y_S = (-1)^{#{h in S : h < k}} y_{S+k}, and 0 if k is in S.
    * z = 0: a acts as a derivation, y_S a v plus each y_h of S replaced by
      [a, y_h], reordered with its sign.  A non-Cartan [a, y_h] is one other
      y_k, so no two places meet: each is one pass over the subsets that
      hold h and not k, h ascending.  A Cartan E_aa scales y_h by its weight
      at a, so the multiples add up to S's weight offset at a, one term (S, None).
    * z = +1: x y_h y_rest = [x, y_h] y_rest - y_h x y_rest with h the least
      element of S, one pass over the subsets in PBW order: [x, y_h] is in
      g0, so its terms read the z = 0 rows of the labels of [x, y_h] on rest,
      and x y_rest was built earlier in the pass.

    Each row lists its terms in the order the recursion
    a y_h y_rest = [a, y_h] y_rest + (-1)^{|a|} y_h a y_rest on the least h
    of S gives them (``tests/test_modules.py`` keeps it as the reference),
    so the Kac columns summed from the rows, their pivots and every dump
    are the recursion's.
    """
    g = gl_superalgebra(m, n)
    y_labels = [lab for lab in g.labels if g.z_degree[lab] == -1]
    y_pos = {lab: i for i, lab in enumerate(y_labels)}
    mn = len(y_labels)
    subsets = sorted((tuple(i for i in range(mn) if mask >> i & 1) for mask in range(1 << mn)),
                     key=lambda S: (len(S), S))
    masks = [sum(1 << h for h in S) for S in subsets]
    index = sorted(range(1 << mn), key=masks.__getitem__)  # mask -> its position
    odd = [bin(mask).count("1") & 1 for mask in range(1 << mn)]  # mask -> its parity
    rest = [index[s & (s - 1)] for s in masks]
    y_coords = [g.weight_of[y].coords for y in y_labels]
    offsets = [tuple(map(sum, zip((0,) * (m + n), *(y_coords[h] for h in S)))) for S in subsets]

    def lower(label) -> list:
        bit = 1 << y_pos[label]
        return [[] if s & bit else [(index[s | bit], None, -1 if odd[s & (bit - 1)] else 1)]
                for s in masks]

    def derivation(label) -> list:
        out = [[] for _ in masks]
        for h in range(mn):
            for y, c in g.bracket(label, y_labels[h]).items():
                if (k := y_pos[y]) == h:
                    continue
                # one pass over the subsets that hold h and not k; y_k takes
                # the place of y_h past the bits strictly between them
                hbit, flip = 1 << h, 1 << h | 1 << k
                between = (1 << max(h, k)) - (2 << min(h, k))
                for i, s in enumerate(masks):
                    if s & flip == hbit:
                        out[i].append((index[s ^ flip], None, -c if odd[s & between] else c))
        a = label[1] - 1 if label[1] == label[2] else None  # Cartan E_aa: S's offset at a
        for i, row in enumerate(out):
            if a is not None and offsets[i][a]:
                row.append((i, None, offsets[i][a]))
            row.append((i, label, 1))
        return out

    def raising(label) -> list:
        parts = [[(rows[e], c) for e, c in g.bracket(label, y).items()] for y in y_labels]
        acts = [{}]
        for S, r in zip(subsets[1:], rest[1:]):
            h = S[0]
            bit, low = 1 << h, (1 << h) - 1
            x_rest = acts[r]
            if not parts[h]:  # -y_h x y_rest alone: distinct terms stay distinct
                acts.append({(index[t | bit], e): x if odd[t & low] else -x
                             for (i, e), x in x_rest.items() if not (t := masks[i]) & bit})
                continue
            out: dict = {}
            for row, c in parts[h]:
                for i, e, x in row[r]:
                    key = (i, e)
                    out[key] = v = out.get(key, 0) + c * x
                    if not v:
                        del out[key]
            for (i, e), x in x_rest.items():
                if not (t := masks[i]) & bit:
                    key = (index[t | bit], e)
                    out[key] = v = out.get(key, 0) + (x if odd[t & low] else -x)
                    if not v:
                        del out[key]
            acts.append(out)
        return [[(i, e, x) for (i, e), x in out.items()] for out in acts]

    build = {-1: lower, 0: derivation, 1: raising}
    rows = _OnFirstRead(g.labels, lambda label: build[g.z_degree[label]](label))
    return _ExteriorTable(
        y_labels=y_labels,
        subsets=subsets,
        rest=rest,
        offsets=offsets,
        prefixes=["y[" + ",".join(str(h + 1) for h in S) + "]" for S in subsets],
        rows=rows,
    )


# (lam, budget) -> the Kac module some caller still holds (``kac_module``)
_LIVE_KAC: WeakValueDictionary = WeakValueDictionary()


def kac_module(lam: Weight, budget: int = RunConfig.dimension_budget) -> SuperModuleRep:
    """The universal highest weight supermodule induced from L0(lam).

    While a caller holds the Kac module of (lam, budget), every call with that
    key returns that object, label columns already read included; a Kac
    module is immutable, so its holders cannot tell.  The table of live
    modules holds them weakly, so a module goes with its last holder and no
    long run keeps modules it no longer reads; the next call builds it
    again, equal to the old one.  A new module is published
    with one ``setdefault``, as ``_OnFirstRead`` publishes a label: two
    threads racing on one key may both build it and get two equal modules.
    A key that raises (``NotDominant``, ``ConstructionOverflow``) publishes
    nothing and raises on every call.

    The actions are summed per label on first read (``_OnFirstRead``).
    """
    key = (lam, budget)
    K = _LIVE_KAC.get(key)
    if K is None:
        K = _LIVE_KAC.setdefault(key, _build_kac_module(lam, budget))
    return K


def _build_kac_module(lam: Weight, budget: int) -> SuperModuleRep:
    m, n = lam.m, lam.n
    g = gl_superalgebra(m, n)
    L0 = L0_module(lam, budget)
    D = L0.dim
    dim = (1 << m * n) * D  # g_-1 has mn labels
    if dim > budget:
        raise ConstructionOverflow(f"Kac module dimension {dim} exceeds budget {budget}")

    table = _exterior_actions(m, n)
    # y_{S_j} v_t is column j D + t.  right[e][t] is e.v_t as (row, int)
    # pairs over the L0 denominator d0, and right[None][t] is d0 v_t.  The
    # Kac actions are these sums, over the same d0.
    d0 = L0.den
    right = {e: [list(cols.get(t, {}).items()) for t in range(D)] for e, cols in L0.actions.items()}
    right[None] = [[(t, d0)] for t in range(D)]

    def columns(label) -> dict:
        cols = {}
        for j, terms in enumerate(table.rows[label]):
            if not terms:
                continue
            for t in range(D):
                col: dict = {}
                for i, e, c in terms:
                    axpy(col, right[e][t], c, i * D)
                if col:
                    cols[j * D + t] = col
        return cols

    def column(label, k) -> dict:
        j, t = divmod(k, D)
        col: dict = {}
        for i, e, c in table.rows[label][j]:
            axpy(col, right[e][t], c, i * D)
        return col

    # one Weight per distinct weight, and one list of shifted L0 weights per distinct offset
    l0_coords = [w.coords for w in L0.weights]
    interned: dict = {}
    shifted: dict = {}
    weights = []
    for offset in table.offsets:
        row = shifted.get(offset)
        if row is None:
            row = shifted[offset] = []
            for w in l0_coords:
                c = tuple(map(add, w, offset))
                row.append(interned.get(c) or interned.setdefault(c, Weight(m, n, c)))
        weights += row
    parities = [len(S) % 2 for S in table.subsets for _ in range(D)]
    names = [f"{prefix}v{t}" for prefix in table.prefixes for t in range(D)]
    return SuperModuleRep(
        g, parities, weights, _OnFirstRead(g.labels, columns, column), basis_names=names,
        meta={"kind": "kac", "weight": lam, "l0_gram": L0.meta["gram"], "l0_dim": D,
              "table": table},
        den=d0,
    )


# ---------------------------------------------------------------------------
# sparse integer products for the representation checks


def _integerize(matrices: dict) -> tuple[int, dict]:
    """One common denominator d, and d times each sparse-column matrix, as ints.

    The one place rational matrices become ints: the actions of L0 modules.
    """
    d = lcm(*{x.denominator for cols in matrices.values()
              for col in cols.values() for x in col.values()})
    return d, {
        key: {j: {i: x.numerator * (d // x.denominator) for i, x in col.items()}
              for j, col in cols.items()}
        for key, cols in matrices.items()
    }


def _int_mul_add(out: dict, A: dict, B: dict, c: int) -> None:
    """out += c * A B for int sparse-column matrices; cancelled entries stay as 0."""
    for j, bcol in B.items():
        ocol = out.setdefault(j, {})
        for k, b in bcol.items():
            acol = A.get(k)
            if acol:
                f = c * b
                for i, a in acol.items():
                    ocol[i] = ocol.get(i, 0) + f * a


def _nonzero_column(out: dict):
    """The least column of out with a nonzero entry, or None."""
    return min((j for j, col in out.items() if any(col.values())), default=None)


def _cartan_failures(M: SuperModuleRep):
    """Yield each (label, column i) where a Cartan label E_aa is not den mu_i[a] on e_i."""
    d = M.den
    for label in M.algebra.labels:
        a = label[1]
        if a != label[2]:
            continue
        cols = M.actions.get(label, {})
        for i, w in enumerate(M.weights):
            x = d * w.coords[a - 1]
            if cols.get(i, {}) != ({i: x} if x else {}):
                yield label, i


# ---------------------------------------------------------------------------
# contravariant form and simple heads


def _transpose_label(label):
    _, a, b = label
    return ("E", b, a)


def _form(K: SuperModuleRep) -> dict:
    """The contravariant form on a Kac module, as int sparse columns G[j] = {i: x}.

    Only nonzero entries are stored.  Entries follow the peel rule
    <y_h u', w> = <u', tau(y_h) w> down to the top layer, where the form is
    the L0 inner product.  Distinct weight spaces pair to zero because each
    weight pins the monomial length, so row i = y_S v_t is filled on the
    basis vectors of its own weight from the row of y_{S - h} v_t, h the
    least element of S, one layer up, which the Kac index order fills
    first; the Kac layout is the table's, index i = (position of S) D + t.
    In ints: with d the module's ``den``, layer k holds d^k times the form
    whose top layer is the int L0 inner product ``l0_gram``.  G is checked
    symmetric, so row i is also column i.
    """
    if K.meta.get("kind") != "kac":
        raise FormInconsistent("the contravariant form is seeded on Kac modules")
    table, D = K.meta["table"], K.meta["l0_dim"]
    A = K.actions
    top = K.meta["l0_gram"]
    spaces, weights = K.weight_spaces, K.weights
    G = {}
    for i in range(K.dim):
        s, t = divmod(i, D)
        idxs = spaces[weights[i].coords]
        if not s:
            # on the top layer the Kac index j is the L0 position
            G[i] = {j: x for j in idxs if (x := top[t].get(j))}
            continue
        prev = G[table.rest[s] * D + t]
        row = G[i] = {}
        if prev:
            up = A[_transpose_label(table.y_labels[table.subsets[s][0]])]
            for j in idxs:
                x = sum(c * prev.get(z, 0) for z, c in up.get(j, {}).items())
                if x:
                    row[j] = x
    for j, col in G.items():
        for i, x in col.items():
            if G[i].get(j) != x:
                raise FormInconsistent("contravariant form block is not symmetric")
    return G


def _check_form_adjointness(K: SuperModuleRep, G: dict):
    """Check <a.u, u'> = <u, tau(a).u'>, as G A_a = A_{tau a}^T G on ints.

    G is the int form of ``_form``, d^k times the form on layer k, and A
    the int actions, d times the action.  A label of z-degree z sends
    layer k to layer k - z, so on the ints the identity reads
    d^z G A_a = A_{tau a}^T G: d G A_a = A_{tau a}^T G for the labels of
    g_1, and G A_a = A_{tau a}^T G for the even labels.  The products run
    for the labels E_ab with a < b, each standing for the pair
    {E_ab, E_ba} (G is symmetric).  A Cartan label h = E_aa is its own
    transpose, and its identity needs no product once A_h = den diag(mu_i[a])
    is checked, column by column in O(dim) (``_cartan_failures``): G holds
    only entries between basis vectors of one weight, so
    (G A_h)_ij = G_ij den mu_j[a] and (A_h^T G)_ij = den mu_i[a] G_ij agree
    wherever G_ij is nonzero.
    """
    for label, _ in _cartan_failures(K):
        raise FormInconsistent(f"Cartan element {label} does not act by the weights")
    A, d = K.actions, K.den
    z_degree = K.algebra.z_degree
    for label in [lab for lab in K.algebra.labels if lab[1] < lab[2]]:
        transposed: dict = {}
        for j, col in A[_transpose_label(label)].items():
            for i, x in col.items():
                transposed.setdefault(i, {})[j] = x
        out: dict = {}
        _int_mul_add(out, G, A[label], d if z_degree[label] == 1 else 1)
        _int_mul_add(out, transposed, G, -1)
        col = _nonzero_column(out)
        if col is not None:
            raise FormInconsistent(f"adjointness fails for {label} on column {col}")


def simple_module(lam: Weight, budget: int = RunConfig.dimension_budget) -> SuperModuleRep:
    """Simple head of the Kac module: quotient by the form radical."""
    K = kac_module(lam, budget)
    G = _form(K)
    _check_form_adjointness(K, G)

    # The int form columns go to ``column_kernel`` from the highest position
    # down, column i at position top - i.  Column i depends on the columns
    # after it exactly when a radical vector has its first nonzero entry at
    # i, so the independent ones are the kept ones.  D G e_i = sum_k N_k G e_k
    # holds exactly when D e_i - sum_k N_k e_k is in the radical, so that
    # relation is e_i's projection, times D.  Columns of different weights
    # have disjoint supports, so they never mix.
    top = K.dim - 1
    relations = column_kernel([G[i] for i in range(top, -1, -1)])
    leads = [max(rel) for rel in relations]
    kept = sorted(set(range(K.dim)).difference(top - p for p in leads))
    new_index = {old: new for new, old in enumerate(kept)}
    # Kac basis vector -> its kept coordinates modulo the radical, as ints
    # over L = lcm(D); a kept vector is its own quotient basis vector
    L = lcm(*(rel[p] for rel, p in zip(relations, leads)))
    projections = {old: ((new, L),) for new, old in enumerate(kept)}
    while relations:  # popped, so one copy of the relations is alive
        rel, p = relations.pop(), leads.pop()
        f = L // rel.pop(p)
        projections[top - p] = tuple((new_index[top - k], -x * f) for k, x in rel.items())

    # quotient coordinates of the int Kac columns, which are K.den times the
    # action, over L, then over the least common denominator by one gcd
    actions = {}
    for label in K.algebra.labels:
        kac_cols = K.actions[label]
        cols = {}
        for new_col, old in enumerate(kept):
            red: dict = {}
            for i, c in kac_cols.get(old, {}).items():
                axpy(red, projections[i], c)
            if red:
                cols[new_col] = red
        actions[label] = cols
    common = L if L == 1 else gcd(L, *(x for cols in actions.values()
                                       for col in cols.values() for x in col.values()))
    if common != 1:
        actions = {label: {j: {i: x // common for i, x in col.items()} for j, col in cols.items()}
                   for label, cols in actions.items()}
    weights = [K.weights[i] for i in kept]
    parities = [K.parities[i] for i in kept]
    names = [K.basis_names[i] for i in kept]

    # the induced form on the quotient must be nondegenerate: the kept
    # columns, restricted to the kept rows, are independent
    if span_dim({i: x for i, x in G[j].items() if i in new_index}
                for j in kept) != len(kept):
        raise FormInconsistent("induced form on the quotient is degenerate")

    return SuperModuleRep(
        K.algebra, parities, weights, actions, basis_names=names,
        meta={"kind": "simple", "weight": lam, "kac_dim": K.dim}, den=L // common * K.den,
    )


# ---------------------------------------------------------------------------
# tensor, dual, parity shift, direct sum


def _check_same_algebra(M: SuperModuleRep, N: SuperModuleRep):
    if not same_algebra(M.algebra, N.algebra):
        raise AlgebraMismatch(f"{M.algebra.name} vs {N.algebra.name}: not the same labels of "
                              "one gl(m|n)")


def tensor(M: SuperModuleRep, N: SuperModuleRep) -> SuperModuleRep:
    """M tensor N with the Koszul sign: a(u@w) = au@w + (-1)^{|a||u|} u@aw.

    Both factors' ints are brought over the lcm of their denominators.  The
    actions are summed per label on first read (``_OnFirstRead``).  Column
    (i, j) is the union of the M part, keys (r, j), and the N part, keys
    (i, r'); the two share a key only when column i of M holds the entry i
    and column j of N holds j, and only then are they added.
    """
    _check_same_algebra(M, N)
    dn = N.dim
    den = lcm(M.den, N.den)
    fm, fn = den // M.den, den // N.den

    def columns(label) -> dict:
        m_cols = M.actions.get(label, {})
        n_cols = N.actions.get(label, {})
        # per nonzero N column j, ascending: its entries times fn and times
        # -fn, the second for the Koszul sign
        n_parts = {}
        for j in range(dn):
            col = n_cols.get(j)
            if col:
                n_parts[j] = ([(r, fn * c) for r, c in col.items()],
                              [(r, -fn * c) for r, c in col.items()])
        odd = M.algebra.parity[label]
        cols: dict = {}
        for i in range(M.dim):
            base = i * dn
            flip = 1 if (odd and M.parities[i]) else 0
            m_part = [(r * dn, fm * c) for r, c in m_cols.get(i, {}).items()]
            for j in range(dn) if m_part else n_parts:
                col = {r + j: c for r, c in m_part}
                parts = n_parts.get(j)
                if parts is not None:
                    axpy(col, parts[flip], ONE, base)
                if col:
                    cols[base + j] = col
        return cols

    parities = [(M.parities[i] + N.parities[j]) % 2 for i in range(M.dim) for j in range(N.dim)]
    # one Weight per distinct sum, added once per pair of weight spaces
    weights = [None] * (M.dim * dn)
    sums: dict = {}
    for ii in M.weight_spaces.values():
        for jj in N.weight_spaces.values():
            w = M.weights[ii[0]] + N.weights[jj[0]]
            w = sums.setdefault(w.coords, w)
            for i in ii:
                for j in jj:
                    weights[i * dn + j] = w
    names = [f"{M.basis_names[i]}@{N.basis_names[j]}" for i in range(M.dim) for j in range(N.dim)]
    return SuperModuleRep(M.algebra, parities, weights, _OnFirstRead(M.algebra.labels, columns),
                          basis_names=names, meta={"kind": "tensor"}, den=den)


def dual(M: SuperModuleRep) -> SuperModuleRep:
    """Contragradient dual: (a.f)(u) = -(-1)^{|a||f|} f(a.u).

    The actions are transposed per label on first read (``_OnFirstRead``).
    """

    def columns(label) -> dict:
        odd = M.algebra.parity[label]
        cols: dict = {}
        for j, entries in M.actions.get(label, {}).items():
            for k, c in entries.items():
                cols.setdefault(k, {})[j] = c if (odd and M.parities[k]) else -c
        return cols

    # one Weight per distinct weight, negated once per weight space
    negated = {coords: -M.weights[idxs[0]] for coords, idxs in M.weight_spaces.items()}
    weights = [negated[w.coords] for w in M.weights]
    names = [f"{name}*" for name in M.basis_names]
    return SuperModuleRep(M.algebra, M.parities, weights, _OnFirstRead(M.algebra.labels, columns),
                          basis_names=names, meta={"kind": "dual"}, den=M.den)


def parity_shift(M: SuperModuleRep) -> SuperModuleRep:
    """Flip the grading; odd algebra elements act with an extra sign."""
    actions = {}
    for label in M.algebra.labels:
        if M.algebra.parity[label]:
            actions[label] = {
                i: {j: -c for j, c in col.items()} for i, col in M.actions.get(label, {}).items()
            }
        else:
            actions[label] = M.actions.get(label, {})
    parities = [(p + 1) % 2 for p in M.parities]
    return SuperModuleRep(M.algebra, parities, M.weights, actions,
                          basis_names=M.basis_names, meta={"kind": "parity-shift"}, den=M.den)


def direct_sum(M: SuperModuleRep, N: SuperModuleRep) -> SuperModuleRep:
    """M + N, with both factors' ints over the lcm of their denominators."""
    _check_same_algebra(M, N)
    dm = M.dim
    den = lcm(M.den, N.den)
    fm, fn = den // M.den, den // N.den
    actions = {}
    for label in M.algebra.labels:
        cols = {i: {j: fm * c for j, c in col.items()}
                for i, col in M.actions.get(label, {}).items()}
        for i, col in N.actions.get(label, {}).items():
            cols[dm + i] = {dm + j: fn * c for j, c in col.items()}
        actions[label] = cols
    return SuperModuleRep(
        M.algebra,
        list(M.parities) + list(N.parities),
        list(M.weights) + list(N.weights),
        actions,
        basis_names=[f"l.{s}" for s in M.basis_names] + [f"r.{s}" for s in N.basis_names],
        meta={"kind": "direct-sum"}, den=den,
    )


# ---------------------------------------------------------------------------
# integrity checks and dumps


def verify_rep(M: SuperModuleRep) -> tuple[bool, list[str]]:
    """Exact parity, weight, and bracket compatibility of the actions.

    Every stored entry must be an int over a positive int ``den``; the
    other checks run only then.  Cartan elements must act diagonally by the
    labeled weight coordinates; the rank-variety tests rely on that.
    Weights are compared as coordinate tuples.  Brackets are checked as
    A_a A_b - s A_b A_a = d [a, b] on the stored ints A over d = den, on
    the pairs ``g.serre_pairs`` only (25 of 128 on gl(2|2)), in label order.

    They imply every pair, for gl(m|n) and its even part; write rho for the
    operators.  (1) rho h is diagonal by the weights and each rho b shifts
    weight by alpha_b (both checked here), so [rho h, rho b] = alpha_b(h) rho b
    = rho [h, b] for Cartan h, by the ``serre_pairs`` check.  (2) The positive
    root labels span n+, which the e_i generate subject to the Serre
    relations: Leites-Saveliev-Serganova (1986), Yamane (Publ. RIMS 30, 1994)
    and R. B. Zhang ("Serre presentations of Lie superalgebras", 2014), and
    Serre's theorem for gl(m) + gl(n).  They present the whole algebra, for
    m = n also sl(n|n) or psl(n|n), with or without the full gl Cartan; all
    share n+, the one part used here (``tests/test_algebra.py`` recomputes
    it for m + n <= 7).  So the relation pairs extend e_i -> rho e_i to a
    representation rho+ of n+, and the definition pairs give rho b = rho+(b)
    for positive b, by induction on its height; likewise for n-.  (3) The x
    in n+ with [rho x, rho f_j] = rho [x, f_j] for all j hold the e_i (pairs
    (e_i, f_j)) and form a subalgebra by graded Jacobi, for the operators
    (homogeneous, checked here) and in the algebra (a supercommutator, as
    ``LieSuperalgebraData`` builds it), as [n+, f_j] lies in h + n+, where (1)
    and (2) apply.  So they are n+.  The y in n- with [rho x, rho y] =
    rho [x, y] for all x in n+ hold the f_j and form a subalgebra likewise,
    so they are n-.  With super-antisymmetry (true of supercommutators, in
    the algebra and of the operators) every pair holds.
    """
    g, d = M.algebra, M.den
    A = {label: M.actions.get(label, {}) for label in g.labels}
    problems = [] if isinstance(d, int) and d > 0 else [f"den {d!r} is not a positive int"]
    problems += [f"entry {c!r} of {label} on column {i} row {j} is not an int"
                 for label, cols in A.items() for i, col in cols.items()
                 for j, c in col.items() if not isinstance(c, int)]
    if problems:
        return False, problems
    coords = [w.coords for w in M.weights]
    for label in g.labels:
        pa = g.parity[label]
        shift = g.weight_of[label].coords
        for i, col in A[label].items():
            target = tuple(map(add, coords[i], shift))
            for j, c in col.items():
                if c and (M.parities[j] - M.parities[i] - pa) % 2 != 0:
                    problems.append(f"parity breaks: {label} sends {i} to {j}")
                if c and coords[j] != target:
                    problems.append(f"weight breaks: {label} sends {i} to {j}")
    problems += [f"Cartan element {label} is not diagonal on column {i}"
                 for label, i in _cartan_failures(M)]
    identity = {i: {i: 1} for i in range(M.dim)}
    for a, b in g.serre_pairs:
        s = -1 if (g.parity[a] and g.parity[b]) else 1
        out: dict = {}
        _int_mul_add(out, A[a], A[b], 1)
        _int_mul_add(out, A[b], A[a], -s)
        for e, c in g.bracket(a, b).items():
            _int_mul_add(out, A[e], identity, -d * c)
        i = _nonzero_column(out)
        if i is not None:
            problems.append(f"bracket compatibility fails on ({a}, {b}) column {i}")
    return not problems, problems


def label_str(label) -> str:
    _, a, b = label
    return f"E[{a},{b}]"


def dump_module(M: SuperModuleRep) -> dict:
    """JSON-ready record: basis labels, parities, weights, exact matrices."""
    record = {
        "algebra": M.algebra.name,
        "dim": M.dim,
        "superdimension": M.superdimension,
        "kind": M.meta.get("kind", "module"),
        "basis": [
            {
                "name": M.basis_names[i],
                "parity": M.parities[i],
                "weight": format_weight(M.weights[i]),
            }
            for i in range(M.dim)
        ],
        "actions": {},
    }
    if "weight" in M.meta:
        record["highest_weight"] = format_weight(M.meta["weight"])
    for label in M.algebra.labels:
        rows = [["0"] * M.dim for _ in range(M.dim)]
        for col, entries in M.actions.get(label, {}).items():
            for row, x in entries.items():
                rows[row][col] = format_scalar(Fraction(x, M.den))
        record["actions"][label_str(label)] = rows
    return record
