"""Relative cochain complexes, cohomology, and Ext tables.

For the pair (g, g0) with g/g0 purely odd, the degree-p cochains are the
g0-invariants of S^p(W*) tensor M, where W is the odd part.  On those
invariants the differential is the action term alone,

    d = sum_e  (multiply by X_e)  tensor  (act by w_e),

with {w_e} a basis of W and {X_e} the dual basis: the bracket term of the
general relative differential evaluates cochains on [odd, odd], which lands
in g0 and dies by horizontality.  d squares to zero on invariants (graded
Jacobi plus invariance); the construction asserts this exactly and raises if
it fails.

Two independent Ext routes are provided for Kac modules: the full relative
complex of dual(K) tensor M, and the reduction that computes cohomology of
the degree-one layer alone (an abelian purely odd algebra, so the same
action-term differential with no invariance constraint) followed by the
multiplicity of the top g0-constituent.  Their degreewise agreement is one of
the acceptance gates.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations_with_replacement

from .algebra import LieSuperalgebraData
from .config import RunConfig
from .errors import ConstructionOverflow, SignConventionBroken, Unsupported
from .linalg import ONE, ZERO, IncrementalSpan, axpy, column_kernel, quotient_dim
from .modules import SuperModuleRep, dual, tensor
from .roots import Weight, zero_weight


# ---------------------------------------------------------------------------
# monomial utilities (multisets of odd dual generators as sorted index tuples)


def _dual_weights(g: LieSuperalgebraData, odd_labels) -> list[Weight]:
    return [-g.weight_of[lab] for lab in odd_labels]


def _monomials(num_gens: int, degree: int):
    return combinations_with_replacement(range(num_gens), degree)


def _coadjoint_table(g: LieSuperalgebraData, odd_labels) -> dict:
    """a |-> {e: {f: c}} with a.X_e = sum_f c X_f, for even a.

    c is minus the coefficient of w_e in [a, w_f].
    """
    index = {lab: e for e, lab in enumerate(odd_labels)}
    table: dict = {}
    for a in g.even_labels():
        act: dict = {}
        for f, lab_f in enumerate(odd_labels):
            for lab_e, c in g.bracket(a, lab_f).items():
                e = index.get(lab_e)
                if e is None:
                    raise Unsupported(
                        "the even part does not stabilize the chosen odd subspace"
                    )
                act.setdefault(e, {})[f] = -c
        table[a] = act
    return table


def _derive_on_monomial(act: dict, mono: tuple) -> dict:
    """Extend a linear action on generators to a derivation on a monomial."""
    out: dict = {}
    seen = set()
    for pos, e in enumerate(mono):
        if e in seen:
            continue
        seen.add(e)
        mult = mono.count(e)
        removed = mono[:pos] + mono[pos + 1 :]
        axpy(out, ((tuple(sorted(removed + (f,))), c) for f, c in act.get(e, {}).items()), mult)
    return out


def _weight_slice(g, M: SuperModuleRep, odd_labels, degree: int, target: Weight,
                  budget: int) -> list:
    """All keys (monomial, module index) of the given degree and total weight."""
    dual_wts = _dual_weights(g, odd_labels)
    buckets: dict = {}
    for i, w in enumerate(M.weights):
        buckets.setdefault((target - w).coords, []).append(i)
    keys = []
    count = 0
    for mono in _monomials(len(odd_labels), degree):
        count += 1
        if count > budget * 4:
            raise ConstructionOverflow("monomial enumeration exceeds budget")
        w = zero_weight(g.m, g.n)
        for e in mono:
            w = w + dual_wts[e]
        for i in buckets.get(w.coords, ()):
            keys.append((mono, i))
    if len(keys) > budget:
        raise ConstructionOverflow(f"cochain slice of size {len(keys)} exceeds budget")
    return keys


def _g0_condition_columns(g, M: SuperModuleRep, odd_labels, keys) -> list[dict]:
    """Per slice key, the stacked images under every even basis element.

    Rows are keyed (even label, (monomial, module index)) so the simultaneous
    kernel over all even elements is one kernel computation.
    """
    table = _coadjoint_table(g, odd_labels)
    columns = []
    for mono, i in keys:
        col: dict = {}
        for a in g.even_labels():
            axpy(col, (((a, (new_mono, i)), c)
                       for new_mono, c in _derive_on_monomial(table[a], mono).items()), ONE)
            axpy(col, (((a, (mono, j)), c) for j, c in M.action_column(a, i).items()), ONE)
        columns.append(col)
    return columns


def _differential_image(g, M: SuperModuleRep, odd_labels, vec: dict) -> dict:
    """Apply the action-term differential to a sparse cochain over keys."""
    out: dict = {}
    for (mono, i), coeff in vec.items():
        for e, lab in enumerate(odd_labels):
            new_mono = tuple(sorted(mono + (e,)))
            axpy(out, (((new_mono, j), c) for j, c in M.action_column(lab, i).items()), coeff)
    return out


# ---------------------------------------------------------------------------
# the relative complex for (g, g0)


@dataclass(frozen=True)
class CochainDegree:
    keys: tuple               # ambient slice keys (monomial, module index)
    basis: tuple              # invariant vectors as sparse dicts over key positions
    dim: int


class CochainComplex:
    """Invariant bases and differentials for degrees 0..p_max+1."""

    def __init__(self, g, M, p_max, degrees, differentials):
        self.algebra = g
        self.module = M
        self.p_max = p_max
        self.degrees = degrees            # list of CochainDegree, length p_max+2
        self.differentials = differentials  # d^p as list of sparse columns, p <= p_max

    def dims(self) -> list[int]:
        return [deg.dim for deg in self.degrees]

    def differential_columns(self, p: int) -> list[dict]:
        return self.differentials[p]


def build_complex(g: LieSuperalgebraData, M: SuperModuleRep, p_max: int,
                  budget: int = RunConfig.dimension_budget) -> CochainComplex:
    """The relative complex of (g, even part) with coefficients in M.

    Builds invariant cochains in degrees 0..p_max+1 and differentials
    d^0..d^p_max, then asserts d.d = 0 exactly.
    """
    if M.algebra is not g and M.algebra.name != g.name:
        raise Unsupported("module is not a representation of the given algebra")
    odd_labels = g.odd_labels()
    for la in odd_labels:
        for lb in odd_labels:
            if any(g.parity[lc] for lc in g.bracket(la, lb)):
                raise Unsupported("[odd, odd] must land in the even part")
    target = zero_weight(g.m, g.n)

    degrees = []
    spans = []
    for p in range(p_max + 2):
        keys = _weight_slice(g, M, odd_labels, p, target, budget)
        basis = tuple(column_kernel(_g0_condition_columns(g, M, odd_labels, keys)))
        degrees.append(CochainDegree(keys=tuple(keys), basis=basis, dim=len(basis)))
        span = IncrementalSpan()
        for b in basis:
            span.add(b)
        spans.append(span)

    differentials = []
    for p in range(p_max + 1):
        src, dst = degrees[p], degrees[p + 1]
        dst_pos = {key: k for k, key in enumerate(dst.keys)}
        cols = []
        for b in src.basis:
            vec = {src.keys[pos]: c for pos, c in b.items()}
            img = _differential_image(g, M, odd_labels, vec)
            local: dict = {}
            for key, c in img.items():
                pos = dst_pos.get(key)
                if pos is None:
                    raise SignConventionBroken(
                        "differential leaves the weight-zero slice"
                    )
                local[pos] = c
            coords = spans[p + 1].express(local)
            if coords is None:
                raise SignConventionBroken(
                    "differential image is not an invariant cochain"
                )
            cols.append({k: v for k, v in coords.items() if v})
        differentials.append(cols)

    for p in range(p_max):
        for col in differentials[p]:
            out: dict = {}
            for k, c in col.items():
                axpy(out, differentials[p + 1][k].items(), c)
            if out:
                raise SignConventionBroken("d . d != 0 on the constructed complex")
    return CochainComplex(g, M, p_max, degrees, differentials)


def cohomology_dims(g: LieSuperalgebraData, M: SuperModuleRep, p_max: int,
                    budget: int = RunConfig.dimension_budget,
                    complex_: CochainComplex | None = None) -> list[int]:
    """dim H^p(g, g0; M) for p = 0..p_max, via exact kernel/image quotients."""
    cx = complex_ or build_complex(g, M, p_max, budget)
    dims = cx.dims()
    out = []
    for p in range(p_max + 1):
        n = dims[p]
        if n == 0:
            out.append(0)
            continue
        kernel_vecs = column_kernel(cx.differentials[p])
        image_vecs = cx.differentials[p - 1] if p else []
        out.append(quotient_dim(n, [[v.get(r, ZERO) for r in range(n)] for v in image_vecs],
                                [[v.get(r, ZERO) for r in range(n)] for v in kernel_vecs]))
    return out


@dataclass(frozen=True)
class ExtTable:
    dims: tuple[int, ...]
    route: str
    description: str = ""

    def __iter__(self):
        return iter(self.dims)


def ext_dims(M: SuperModuleRep, N: SuperModuleRep, p_max: int,
             budget: int = RunConfig.dimension_budget) -> ExtTable:
    """Ext^p(M, N) for p = 0..p_max through the relative complex of M* tensor N."""
    coeff = tensor(dual(M), N)
    dims = cohomology_dims(M.algebra, coeff, p_max, budget)
    return ExtTable(tuple(dims), route="full-complex",
                    description="H(g, g0; M* tensor N)")


# ---------------------------------------------------------------------------
# the degree-one-layer route for Ext out of a Kac module


def _raising_labels(g) -> list:
    return [lab for lab in g.even_labels() if lab[1] < lab[2]]


def kac_ext_dims(lam: Weight, M: SuperModuleRep, p_max: int,
                 budget: int = RunConfig.dimension_budget) -> ExtTable:
    """Ext^j out of the Kac module of weight lam, via the layer reduction.

    Computes the cohomology of S^j((degree-one part)*) tensor M with the
    action-term differential (the degree-one part is abelian and purely odd),
    then the multiplicity of the simple g0-constituent of highest weight lam,
    as the count of weight-lam highest weight vectors in ker minus image.
    Everything is restricted to the lam weight slices, which is exact because
    the differential and the multiplicity count both preserve weights.
    """
    g = M.algebra
    g1_labels = [lab for lab in g.labels if g.z_degree.get(lab) == 1]
    if not g1_labels:
        raise Unsupported("algebra carries no degree-one part")
    raisings = _raising_labels(g)
    table = _coadjoint_table(g, g1_labels)

    slices = [
        _weight_slice(g, M, g1_labels, j, lam, budget) for j in range(p_max + 2)
    ]
    positions = [{key: k for k, key in enumerate(keys)} for keys in slices]

    def diff_columns(j: int) -> list[dict]:
        cols = []
        for mono, i in slices[j]:
            img = _differential_image(g, M, g1_labels, {(mono, i): ONE})
            col = {}
            for key, c in img.items():
                pos = positions[j + 1].get(key)
                if pos is None:
                    raise SignConventionBroken("layer differential leaves the weight slice")
                col[pos] = c
            cols.append(col)
        return cols

    def raising_rows(vec: dict, j: int) -> dict:
        """Images of a sparse degree-j slice vector under all raising operators."""
        out: dict = {}
        for pos, coeff in vec.items():
            mono, i = slices[j][pos]
            for a in raisings:
                axpy(out, (((a, (new_mono, i)), c)
                           for new_mono, c in _derive_on_monomial(table[a], mono).items()), coeff)
                axpy(out, (((a, (mono, r)), c) for r, c in M.action_column(a, i).items()), coeff)
        return out

    diffs = [diff_columns(j) for j in range(p_max + 1)]
    dims = []
    for j in range(p_max + 1):
        n_j = len(slices[j])
        if n_j == 0:
            dims.append(0)
            continue
        # highest weight vectors inside ker d^j
        cols = []
        for k in range(n_j):
            col = dict(raising_rows({k: ONE}, j))
            for r, v in diffs[j][k].items():
                col[("d", r)] = v
            cols.append(col)
        mult_ker = len(column_kernel(cols))
        # highest weight vectors inside the image of d^{j-1}
        if j == 0 or len(slices[j - 1]) == 0:
            mult_im = 0
        else:
            prev = diffs[j - 1]
            ker_prev = len(column_kernel(prev))
            composed = [raising_rows(c, j) for c in prev]
            ker_comp = len(column_kernel(composed))
            mult_im = ker_comp - ker_prev
        value = mult_ker - mult_im
        if value < 0:
            raise SignConventionBroken("negative multiplicity in the layer reduction")
        dims.append(value)
    return ExtTable(tuple(dims), route="layer-reduction",
                    description="Hom_{g0}(L0(lam), H(S(degree-one dual) tensor M))")


def vanishing_bound(lam: Weight, M: SuperModuleRep) -> int:
    """Smallest J with no lam-weight in S^j((degree-one)*) tensor M for j >= J.

    A weight mu of M contributes a lam-weight in degree j exactly when
    mu - lam is a sum of j positive odd roots; with every such root adding one
    to the first-block coordinate sum, the degree is pinned and feasibility is
    a margin check.
    """
    m = lam.m
    best = -1
    seen = set()
    for w in M.weights:
        delta = w - lam
        if delta.coords in seen:
            continue
        seen.add(delta.coords)
        if any(c.denominator != 1 for c in delta.coords):
            continue
        first = delta.first_block
        second = delta.second_block
        if any(c < 0 for c in first) or any(c > 0 for c in second):
            continue
        total_first = sum(first)
        if total_first != -sum(second):
            continue
        best = max(best, int(total_first))
    return best + 1
