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
So both Ext routes rank the same objects, int images over slice positions,
and a complex to degree p_max builds bases for degrees 0..p_max only, keeping
just the slice keys of degree p_max+1 that d^p_max is stored over.  The
raising images are over int rows, a block of M.dim per (raising, monomial)
pair, and the differential writes onto next-slice positions, so the hot loops
add stored pairs at an offset (``axpy``'s shift) and rebuild no keys.
For Ext the coefficient module ``dual(K) tensor N`` builds a label's columns
on its first read, so only the odd labels and the simple raisings the
complex reads are ever summed.

The invariants are the weight-zero vectors killed by the simple raising
operators E_{i,i+1} (i != m).  This is exact: M's weights are its Cartan
eigenvalues (verify_rep checks this), so g0 = gl(m) + gl(n) acts semisimply
on the finite-dimensional S^p(W*) tensor M, and a weight-zero vector killed
by the simple raising operators is a g0 highest-weight vector of weight zero,
which spans a trivial g0-module.  The same definition checks the
differential: the simple raising operators must kill every image of every
d^p, in each degree alike, the top one included.

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

from .algebra import LieSuperalgebraData, gl_superalgebra, same_algebra
from .config import RunConfig
from .errors import (ConstructionOverflow, NotDominant, ShapeMismatch, SignConventionBroken,
                     Unsupported)
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
    needed: dict = {}
    for w, idx in M.weight_spaces.items():
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
    one step above the diagonal.  Each (raising, monomial) pair is numbered
    once per call as a block of M.dim int rows, row block * M.dim + module
    index, so the vectors they all kill are one kernel computation.  The
    rows are first seen in the order of the (label, (monomial, index)) keys
    they stand for, so a span numbers them alike.  Images are M.den times the
    true ones, so the derivation term is scaled by M.den.
    """
    raisings = [lab for lab in g.even_labels() if lab[2] == lab[1] + 1]
    table = _coadjoint_table(g, gens, raisings)
    acts = [M.actions.get(a, {}) for a in raisings]
    den, dim = M.den, M.dim
    blocks: dict = {}  # (raising position, monomial) -> the offset of its block

    def offset(r: int, mono: tuple) -> int:
        return blocks.setdefault((r, mono), dim * len(blocks))

    # monomial -> per raising, its block's offset and its derivation over
    # block offsets; shared by module indices
    derivations: dict = {}
    images = []
    for vec in vecs:
        out: dict = {}
        for pos, coeff in vec.items():
            mono, i = keys[pos]
            derived_by = derivations.get(mono)
            if derived_by is None:
                derived_by = derivations[mono] = [
                    (offset(r, mono), [(offset(r, new_mono), c) for new_mono, c
                                       in _derive_on_monomial(table[a], mono).items()])
                    for r, a in enumerate(raisings)]
            for cols, (base, derived) in zip(acts, derived_by):
                axpy(out, derived, den * coeff, i)
                axpy(out, cols.get(i, {}).items(), coeff, base)
        images.append(out)
    return images


def _differential_columns(M: SuperModuleRep, gens, keys, next_keys, vecs) -> list[dict]:
    """M.den times the action-term differential of sparse vectors over slice positions.

    Images are sparse vectors over the positions of next_keys, the slice one
    degree up, written there through a map monomial -> {module index:
    position}; an image term outside that slice raises SignConventionBroken.
    Distinct generators give distinct monomials, so no two terms of a
    position's image meet.  That image is built once per call and shared by
    the vectors.
    """
    next_pos: dict = {}
    for k, (mono, j) in enumerate(next_keys):
        next_pos.setdefault(mono, {})[j] = k
    acting = [(e, cols) for e, cols in enumerate(M.actions.get(lab) for lab in gens) if cols]
    image_of: dict = {}  # slice position -> its image
    columns = []
    for vec in vecs:
        col: dict = {}
        for pos, coeff in vec.items():
            if pos not in image_of:
                mono, i = keys[pos]
                img = image_of[pos] = []
                for e, cols in acting:
                    column = cols.get(i)
                    if column:
                        at = next_pos.get(tuple(sorted(mono + (e,))), {})
                        if not at.keys() >= column.keys():
                            raise SignConventionBroken("differential leaves the weight slice")
                        img.extend(zip(map(at.get, column), column.values()))
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
    """Invariant bases for degrees 0..p_max and differentials d^0..d^p_max.

    d^p_max lands in degree p_max+1, of which only the slice keys are kept:
    no rank reads a basis there, and the raising operators check its images.
    """

    def __init__(self, g, M, p_max, degrees, top_keys, differentials):
        self.algebra = g
        self.module = M
        self.p_max = p_max
        self.degrees = degrees            # list of CochainDegree, length p_max+1
        self.top_keys = top_keys          # slice keys of degree p_max+1
        # d^p for p <= p_max: per basis vector of degree p, M.den times its
        # image, a sparse int column over the positions of the degree-(p+1)
        # keys, degrees[p+1].keys or, for p = p_max, top_keys
        self.differentials = differentials

    def dims(self) -> list[int]:
        return [deg.dim for deg in self.degrees]


def build_complex(g: LieSuperalgebraData, M: SuperModuleRep, p_max: int,
                  budget: int = RunConfig.dimension_budget) -> CochainComplex:
    """The relative complex of (g, even part) with coefficients in M.

    Builds invariant cochains in degrees 0..p_max and differentials
    d^0..d^p_max, the last over the slice keys of degree p_max+1.  Each image
    of each d^p must be killed by the simple raising operators, which is
    the definition of an invariant cochain, and d.d = 0 must hold exactly.
    """
    if p_max < 0:
        raise ValueError("p_max must be >= 0")
    if not same_algebra(M.algebra, g):
        raise Unsupported("module is not a representation of the given algebra")
    odd_labels = g.odd_labels()
    target = zero_weight(g.m, g.n)
    slices = [tuple(_weight_slice(g, M, odd_labels, p, target, budget))
              for p in range(p_max + 2)]

    # per degree, one raising call covers the images of d arriving in it
    # (which must be invariant) and, below the top, the slice's unit vectors
    # (whose kernel is the basis); one differential call then maps both those
    # images (which d must kill) and the basis (the next differential)
    degrees, differentials = [], []
    images: list = []
    for p, keys in enumerate(slices):
        units = [{k: 1} for k in range(len(keys))] if p <= p_max else []
        raised = _raising_images(g, M, odd_labels, keys, [*images, *units])
        if any(raised[:len(images)]):
            raise SignConventionBroken("differential image is not an invariant cochain")
        if p > p_max:
            break
        basis = tuple(column_kernel(raised[len(images):]))
        degrees.append(CochainDegree(keys=keys, basis=basis))
        out = _differential_columns(M, odd_labels, keys, slices[p + 1], [*images, *basis])
        if any(out[:len(images)]):
            raise SignConventionBroken("d . d != 0 on the constructed complex")
        images = out[len(images):]
        differentials.append(images)
    return CochainComplex(g, M, p_max, degrees, slices[-1], differentials)


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
    """Ext^p(M, N) for p = 0..p_max through the relative complex of M* tensor N.

    Raises ``Unsupported`` unless M and N are modules over gl(m|n) itself: the
    complex of a module over the even part would compute its (g0, g0)
    cohomology instead.
    """
    for X in (M, N):
        if not same_algebra(X.algebra, gl_superalgebra(X.algebra.m, X.algebra.n)):
            raise Unsupported("module is not a representation of the given algebra")
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
    exists then, ``ShapeMismatch`` unless M is over gl(m|n) of lam's shape,
    and ``Unsupported`` unless M is a module over it.
    """
    if p_max < 0:
        raise ValueError("p_max must be >= 0")
    if not is_dominant_integral(lam):
        raise NotDominant(f"{format_weight(lam)} is not dominant integral")
    g = M.algebra
    if (g.m, g.n) != (lam.m, lam.n):
        raise ShapeMismatch(f"weight over gl({lam.m}|{lam.n}), module over {g.name}")
    if not same_algebra(g, gl_superalgebra(lam.m, lam.n)):
        raise Unsupported("module is not a representation of the given algebra")
    g1_labels = [lab for lab in g.labels if g.z_degree[lab] == 1]

    slices = [
        _weight_slice(g, M, g1_labels, j, lam, budget) for j in range(p_max + 2)
    ]
    units = [[{k: 1} for k in range(len(keys))] for keys in slices[:-1]]
    diffs = [_differential_columns(M, g1_labels, slices[j], slices[j + 1], units[j])
             for j in range(p_max + 1)]
    dims = []
    for j in range(p_max + 1):
        # one raising call covers the unit vectors and the images of d^{j-1},
        # as in build_complex
        prev = diffs[j - 1] if j else []
        raised = _raising_images(g, M, g1_labels, slices[j], [*units[j], *prev])
        cols, composed = raised[:len(units[j])], raised[len(units[j]):]
        # highest weight vectors inside ker d^j
        for col, d in zip(cols, diffs[j]):
            col.update((("d", r), v) for r, v in d.items())
        mult_ker = len(cols) - span_dim(cols)
        # highest weight vectors inside the image of d^{j-1}: the raising
        # operators' kernel on span(prev), by rank-nullity
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
    a margin check.  Raises ``ShapeMismatch`` unless lam and M are over one
    gl(m|n).
    """
    m = lam.m
    if (M.algebra.m, M.algebra.n) != (m, lam.n):
        raise ShapeMismatch(f"weight over gl({m}|{lam.n}), module over {M.algebra.name}")
    best = -1
    for w in M.weight_spaces:
        delta = tuple(map(sub, w, lam.coords))
        if any(c.denominator != 1 for c in delta):
            continue
        first, second = delta[:m], delta[m:]
        if any(c < 0 for c in first) or any(c > 0 for c in second):
            continue
        total_first = sum(first)
        if total_first != -sum(second):
            continue
        best = max(best, int(total_first))
    return best + 1
