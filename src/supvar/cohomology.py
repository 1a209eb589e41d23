"""Relative cochain complexes, cohomology, and Ext tables.

For the pair (g, g0) with g/g0 purely odd, the degree-p cochains are the
g0-invariants of S^p(W*) tensor M, where W is the odd part.  On those
invariants the differential is the action term alone,

    d = sum_e  (multiply by X_e)  tensor  (act by w_e),

with {w_e} a basis of W and {X_e} the dual basis: the bracket term of the
general relative differential evaluates cochains on [odd, odd], which lands
in g0 and dies by horizontality.  That [odd, odd] lies in g0, and that g0
maps each g_{+-1} to itself, is the Z-grading of the matrix units, which holds
because ``LieSuperalgebraData`` builds every bracket as their
supercommutator.  d squares to zero on invariants
(graded Jacobi plus invariance); the construction asserts this exactly and
raises if it fails.

Cochains are ints from the slice to the ranks.  The invariant basis is
``column_kernel``'s primitive int relations, and the module's int actions
over its ``den`` build the raising images and the differentials.  d^p is
stored as den times the images of the degree-p basis vectors, over the
positions of the next slice: scaling changes no rank, and neither does
reading an image in the slice instead of over the (independent) next basis.
So both Ext routes rank the same objects, int images over slice positions.
For Ext the coefficient module ``dual(K) tensor N`` builds a label's columns
on its first read, so only the odd labels and the simple raisings the
complex reads are ever summed.

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
the acceptance gates.  Both routes share the weight slices (generated by
weight, not filtered; see _weight_slice), the raising conditions and the
differential below.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations_with_replacement
from operator import sub

from .algebra import LieSuperalgebraData, same_algebra
from .config import RunConfig
from .errors import ConstructionOverflow, NotDominant, SignConventionBroken, Unsupported
from .linalg import axpy, column_kernel, span_dim
from .modules import SuperModuleRep, dual, tensor
from .roots import Weight, format_weight, is_dominant_integral, zero_weight


# ---------------------------------------------------------------------------
# steps both routes share; slice keys are (monomial, module index), with a
# monomial in S^p(gens*) a sorted tuple of generator indices


def _coadjoint_table(g: LieSuperalgebraData, gens, labels) -> dict:
    """a |-> {e: {f: c}} with a.X_e = sum_f c X_f, for each even a in labels.

    c is minus the coefficient of w_e in [a, w_f], an int, as every
    structure constant ``LieSuperalgebraData`` builds is 1 or -1.  gens holds
    every label of z-degree 1, or of z-degree +-1, and the matrix units'
    grading makes [a, w_f] of the z-degree of w_f, so each w_e is in gens.
    """
    index = {lab: e for e, lab in enumerate(gens)}
    table: dict = {}
    for a in labels:
        act: dict = {}
        for f, lab_f in enumerate(gens):
            for lab_e, c in g.bracket(a, lab_f).items():
                act.setdefault(index[lab_e], {})[f] = -c
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

    Only keys of the target weight are generated.  A g1* generator lowers the
    first-block coordinate sum by one and a g-1* generator raises it by one,
    so the monomial weight target - w needed against a module weight w pins
    the split: k_up + k_down = degree and k_down - k_up is its first-block
    sum.  A needed weight with a non-int coordinate, or whose sum has the
    wrong parity or exceeds the degree, has no keys.  Each monomial is the
    merge of a g1* half and a g-1* half, joined through per-(side, k) tables
    from weight to half-monomials, built once per call.

    Keys come out sorted.  That is the enumerate-then-filter order, since
    combinations_with_replacement yields monomials lexicographically and each
    weight lists its module indices ascending.  The slice is bounded by
    budget; a half-monomial table beyond 4 x budget raises too, so a high
    degree cannot fill memory before the slice size is known.
    """
    m = target.m
    gen_weights = [(-g.weight_of[lab]).coords for lab in gens]
    sides: tuple = ([], [])  # g1* then g-1* generator indices
    for e, lab in enumerate(gens):
        sides[g.z_degree[lab] < 0].append(e)
    zero = (0,) * len(target.coords)

    # needed monomial weight -> module indices, grouped by k_up; an integral
    # Fraction coordinate hashes and compares like the int it equals
    by_weight: dict = {}
    for i, w in enumerate(M.weights):
        by_weight.setdefault(w.coords, []).append(i)
    needed: dict = {}
    for w, idx in by_weight.items():
        need = tuple(map(sub, target.coords, w))
        if any(c.denominator != 1 for c in need):
            continue
        s = sum(need[:m])
        if (degree + s) % 2 or abs(s) > degree:
            continue
        needed.setdefault((degree - s) // 2, {})[need] = idx

    tables: dict = {}

    def table(side: int, k: int) -> dict:
        if (side, k) not in tables:
            halves: dict = {}
            for count, half in enumerate(combinations_with_replacement(sides[side], k), 1):
                if count > budget * 4:
                    raise ConstructionOverflow("half-monomial table exceeds budget")
                w = tuple(map(sum, zip(zero, *[gen_weights[e] for e in half])))
                halves.setdefault(w, []).append(half)
            tables[side, k] = halves
        return tables[side, k]

    # (halves, halves, module indices) triples whose weights add up; the
    # merged monomial is symmetric in the two halves, so sides need no order
    found = []
    for k_up, need in needed.items():
        small, large = sorted((table(0, k_up), table(1, degree - k_up)), key=len)
        for t, idx in need.items():
            for w, halves in small.items():
                other = large.get(tuple(map(sub, t, w)))
                if other:
                    found.append((halves, other, idx))
    size = sum(len(a) * len(b) * len(idx) for a, b, idx in found)
    if size > budget:
        raise ConstructionOverflow(f"cochain slice of size {size} exceeds budget")
    keys = [(tuple(sorted(a + b)), i)
            for halves, others, idx in found for a in halves for b in others for i in idx]
    keys.sort()
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
    acts = [(a, M.actions.get(a, {})) for a in raisings]
    den = M.den
    derivations: dict = {}  # monomial -> per raising, its derivation; shared by module indices
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
                axpy(out, (((a, (new_mono, i)), c) for new_mono, c in derived.items()), den * coeff)
                axpy(out, (((a, (mono, r)), c) for r, c in cols.get(i, {}).items()), coeff)
        images.append(out)
    return images


def _differential_columns(M: SuperModuleRep, gens, keys, next_keys, vecs) -> list[dict]:
    """M.den times the action-term differential of sparse vectors over slice positions.

    Images are sparse vectors over the positions of next_keys, the slice one
    degree up; an image outside that slice raises SignConventionBroken.  A
    slice position's image is built once per call and shared by the vectors.
    """
    next_pos = {key: k for k, key in enumerate(next_keys)}
    acting = [(e, cols) for e, cols in enumerate(M.actions.get(lab) for lab in gens) if cols]
    image_of: dict = {}  # slice position -> its image
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
                if not next_pos.keys() >= img.keys():
                    raise SignConventionBroken("differential leaves the weight slice")
                image_of[pos] = [(next_pos[key], c) for key, c in img.items()]
            axpy(col, image_of[pos], coeff)
        columns.append(col)
    return columns


# ---------------------------------------------------------------------------
# the relative complex for (g, g0)


@dataclass(frozen=True)
class CochainDegree:
    keys: tuple               # ambient slice keys (monomial, module index)
    basis: tuple              # invariant vectors as primitive int sparse dicts over key positions

    @property
    def dim(self) -> int:
        return len(self.basis)


class CochainComplex:
    """Invariant bases and differentials for degrees 0..p_max+1."""

    def __init__(self, g, M, p_max, degrees, differentials):
        self.algebra = g
        self.module = M
        self.p_max = p_max
        self.degrees = degrees            # list of CochainDegree, length p_max+2
        # d^p for p <= p_max: per basis vector of degree p, M.den times its
        # image, a sparse int column over the positions of degrees[p+1].keys
        self.differentials = differentials

    def dims(self) -> list[int]:
        return [deg.dim for deg in self.degrees]


def build_complex(g: LieSuperalgebraData, M: SuperModuleRep, p_max: int,
                  budget: int = RunConfig.dimension_budget) -> CochainComplex:
    """The relative complex of (g, even part) with coefficients in M.

    Builds invariant cochains in degrees 0..p_max+1 and differentials
    d^0..d^p_max, checking that each image is an invariant cochain and that
    d.d = 0 exactly.
    """
    if not same_algebra(M.algebra, g):
        raise Unsupported("module is not a representation of the given algebra")
    odd_labels = g.odd_labels()
    target = zero_weight(g.m, g.n)

    degrees = []
    for p in range(p_max + 2):
        keys = tuple(_weight_slice(g, M, odd_labels, p, target, budget))
        units = [{k: 1} for k in range(len(keys))]
        basis = tuple(column_kernel(_raising_images(g, M, odd_labels, keys, units)))
        degrees.append(CochainDegree(keys=keys, basis=basis))

    # one call per degree maps both that degree's basis (the next differential)
    # and the images arriving in it (which d must kill), sharing the work
    differentials = []
    images = _differential_columns(M, odd_labels, degrees[0].keys, degrees[1].keys,
                                   degrees[0].basis)
    for p in range(p_max + 1):
        dst = degrees[p + 1]
        if span_dim([*dst.basis, *images]) != dst.dim:
            raise SignConventionBroken("differential image is not an invariant cochain")
        differentials.append(images)
        if p < p_max:
            out = _differential_columns(M, odd_labels, dst.keys, degrees[p + 2].keys,
                                        [*images, *dst.basis])
            if any(out[:len(images)]):
                raise SignConventionBroken("d . d != 0 on the constructed complex")
            images = out[len(images):]
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

    def __iter__(self):
        return iter(self.dims)


def ext_dims(M: SuperModuleRep, N: SuperModuleRep, p_max: int,
             budget: int = RunConfig.dimension_budget) -> ExtTable:
    """Ext^p(M, N) for p = 0..p_max through the relative complex of M* tensor N."""
    coeff = tensor(dual(M), N)
    dims = cohomology_dims(M.algebra, coeff, p_max, budget)
    return ExtTable(tuple(dims), route="full-complex")


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
    Raises ``NotDominant`` unless lam is dominant integral, as no K(lam)
    exists then.
    """
    if not is_dominant_integral(lam):
        raise NotDominant(f"{format_weight(lam)} is not dominant integral")
    g = M.algebra
    g1_labels = [lab for lab in g.labels if g.z_degree[lab] == 1]
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
    return ExtTable(tuple(dims), route="layer-reduction")


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
