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

The invariants are the weight-zero vectors killed by the simple raising
operators E_{i,i+1} (i != m).  This is exact: M's weights are its Cartan
eigenvalues (verify_rep checks this), so g0 = gl(m) + gl(n) acts semisimply
on the finite-dimensional S^p(W*) tensor M, and a weight-zero vector killed
by the simple raising operators is a g0 highest-weight vector of weight zero,
which spans a trivial g0-module.

Two independent Ext routes are provided for Kac modules: the full relative
complex of dual(K) tensor M, and the reduction that computes cohomology of
the degree-one layer alone (an abelian purely odd algebra, so the same
action-term differential with no invariance constraint) followed by the
multiplicity of the top g0-constituent.  Their degreewise agreement is one of
the acceptance gates.  Both routes share the weight slices, the raising
conditions and the differential below.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations_with_replacement
from math import lcm

from .algebra import LieSuperalgebraData
from .config import RunConfig
from .errors import ConstructionOverflow, InvariantBroken, SignConventionBroken, Unsupported
from .linalg import IncrementalSpan, axpy, column_kernel, span_dim
from .modules import SuperModuleRep, dual, tensor
from .roots import Weight, zero_weight


# ---------------------------------------------------------------------------
# steps both routes share; slice keys are (monomial, module index), with a
# monomial in S^p(gens*) a sorted tuple of generator indices


def _coadjoint_table(g: LieSuperalgebraData, gens, labels) -> dict:
    """a |-> {e: {f: c}} with a.X_e = sum_f c X_f, for each even a in labels.

    c is minus the coefficient of w_e in [a, w_f], an int: every gl(m|n)
    structure constant is one, and a non-integral one raises.
    """
    index = {lab: e for e, lab in enumerate(gens)}
    table: dict = {}
    for a in labels:
        act: dict = {}
        for f, lab_f in enumerate(gens):
            for lab_e, c in g.bracket(a, lab_f).items():
                e = index.get(lab_e)
                if e is None:
                    raise Unsupported(
                        "the even part does not stabilize the chosen odd subspace"
                    )
                if c.denominator != 1:
                    raise InvariantBroken(f"[{a}, {lab_f}] is not integral")
                act.setdefault(e, {})[f] = -c.numerator
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


def _weight_slice(g, M: SuperModuleRep, gens, degree: int, target: Weight,
                  budget: int) -> list:
    """All keys (monomial, module index) of the given degree and total weight.

    Monomial weights are summed as coordinate tuples, ints on integral weights.
    """
    gen_weights = [(-g.weight_of[lab]).coords for lab in gens]
    zero = (0,) * len(target.coords)
    buckets: dict = {}
    for i, w in enumerate(M.weights):
        buckets.setdefault((target - w).coords, []).append(i)
    keys = []
    for count, mono in enumerate(combinations_with_replacement(range(len(gens)), degree), 1):
        if count > budget * 4:
            raise ConstructionOverflow("monomial enumeration exceeds budget")
        w = tuple(map(sum, zip(zero, *[gen_weights[e] for e in mono])))
        for i in buckets.get(w, ()):
            keys.append((mono, i))
    if len(keys) > budget:
        raise ConstructionOverflow(f"cochain slice of size {len(keys)} exceeds budget")
    return keys


def _raising_images(g, M: SuperModuleRep, gens, keys, vecs) -> list[dict]:
    """Per sparse vector over slice positions, its stacked raising images.

    The simple raising operators are E_{i,i+1} with i != m, the even labels
    one step above the diagonal.  Rows are keyed (label, (monomial, module
    index)), so the vectors they all kill are one kernel computation.  Images
    are M.den times the true ones, so the derivation term is scaled by M.den.
    """
    raisings = [lab for lab in g.even_labels() if lab[2] == lab[1] + 1]
    table = _coadjoint_table(g, gens, raisings)
    den = M.den
    images = []
    for vec in vecs:
        out: dict = {}
        for pos, coeff in vec.items():
            mono, i = keys[pos]
            for a in raisings:
                derived = _derive_on_monomial(table[a], mono)
                axpy(out, (((a, (new_mono, i)), c) for new_mono, c in derived.items()), den * coeff)
                axpy(out, (((a, (mono, r)), c) for r, c in M.action_column(a, i).items()), coeff)
        images.append(out)
    return images


def _differential_columns(M: SuperModuleRep, gens, keys, next_keys, vecs) -> list[dict]:
    """M.den times the action-term differential of sparse vectors over slice positions.

    Images are sparse vectors over the positions of next_keys, the slice one
    degree up; an image outside that slice raises SignConventionBroken.
    """
    next_pos = {key: k for k, key in enumerate(next_keys)}
    columns = []
    for vec in vecs:
        img: dict = {}
        for pos, coeff in vec.items():
            mono, i = keys[pos]
            for e, lab in enumerate(gens):
                new_mono = tuple(sorted(mono + (e,)))
                axpy(img, (((new_mono, j), c) for j, c in M.action_column(lab, i).items()), coeff)
        col: dict = {}
        for key, c in img.items():
            k = next_pos.get(key)
            if k is None:
                raise SignConventionBroken("differential leaves the weight slice")
            col[k] = c
        columns.append(col)
    return columns


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
        keys = tuple(_weight_slice(g, M, odd_labels, p, target, budget))
        units = [{k: 1} for k in range(len(keys))]
        basis = tuple(column_kernel(_raising_images(g, M, odd_labels, keys, units)))
        degrees.append(CochainDegree(keys=keys, basis=basis, dim=len(basis)))
        span = IncrementalSpan()
        for b in basis:
            span.add(b)
        spans.append(span)

    differentials = []
    for p in range(p_max + 1):
        src, dst = degrees[p], degrees[p + 1]
        # each basis vector times s is an int vector, so its image sums ints
        scales = [lcm(*[x.denominator for x in b.values()]) for b in src.basis]
        ints = [{k: x.numerator * (s // x.denominator) for k, x in b.items()}
                for b, s in zip(src.basis, scales)]
        cols = []
        for img, s in zip(_differential_columns(M, odd_labels, src.keys, dst.keys, ints), scales):
            coords = spans[p + 1].express(img)
            if coords is None:
                raise SignConventionBroken(
                    "differential image is not an invariant cochain"
                )
            cols.append({k: v / (s * M.den) for k, v in coords.items() if v})
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
                    budget: int = RunConfig.dimension_budget) -> list[int]:
    """dim H^p(g, g0; M) for p = 0..p_max, as dim C^p - rank d^p - rank d^{p-1}.

    ``build_complex`` asserts d.d = 0 exactly, so im d^{p-1} lies in ker d^p
    and the ranks alone give the quotient.
    """
    cx = build_complex(g, M, p_max, budget)
    dims = cx.dims()
    ranks = [0] + [span_dim(d) for d in cx.differentials]
    return [dims[p] - ranks[p + 1] - ranks[p] for p in range(p_max + 1)]


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


def kac_ext_dims(lam: Weight, M: SuperModuleRep, p_max: int,
                 budget: int = RunConfig.dimension_budget) -> ExtTable:
    """Ext^j out of the Kac module of weight lam, via the layer reduction.

    Computes the cohomology of S^j((degree-one part)*) tensor M with the
    action-term differential (the degree-one part is abelian and purely odd),
    then the multiplicity of the simple g0-constituent of highest weight lam,
    as the count of weight-lam highest weight vectors (those killed by the
    simple raising operators) in ker minus image.
    Everything is restricted to the lam weight slices, which is exact because
    the differential and the multiplicity count both preserve weights.
    """
    g = M.algebra
    g1_labels = [lab for lab in g.labels if g.z_degree.get(lab) == 1]
    if not g1_labels:
        raise Unsupported("algebra carries no degree-one part")

    slices = [
        _weight_slice(g, M, g1_labels, j, lam, budget) for j in range(p_max + 2)
    ]
    units = [[{k: 1} for k in range(len(keys))] for keys in slices]
    diffs = [_differential_columns(M, g1_labels, slices[j], slices[j + 1], units[j])
             for j in range(p_max + 1)]
    dims = []
    for j in range(p_max + 1):
        # highest weight vectors inside ker d^j
        cols = _raising_images(g, M, g1_labels, slices[j], units[j])
        for col, d in zip(cols, diffs[j]):
            col.update((("d", r), v) for r, v in d.items())
        mult_ker = len(cols) - span_dim(cols)
        # highest weight vectors inside the image of d^{j-1}: the raising
        # operators' kernel on span(prev), by rank-nullity
        mult_im = 0
        if j:
            prev = diffs[j - 1]
            composed = _raising_images(g, M, g1_labels, slices[j], prev)
            mult_im = span_dim(prev) - span_dim(composed)
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
