"""Rank-variety projectivity tests and empirical support varieties.

A point of the odd part of the detecting subalgebra is x = sum a_t x_t.  Its
square acts on a weight vector of weight mu by the scalar

    c(mu) = sum_t a_t^2 (mu_{m+1-t} + mu_{m+t}),

so x^2 is diagonal in any weight basis.  On the blocks where c(mu) != 0 the
one-variable Clifford algebra is nondegenerate and every module is projective
there; the verdict is decided on the zero block M0, where <x> acts like an
exterior algebra on one generator and projectivity means rank(X|M0) equals
dim(M0)/2.  Because X restricted to M0 squares to zero, its rank never
exceeds dim(M0)/2, so the elimination can stop early once that bound is hit.
Every module offers its columns in one order: first those that f_t0, the
g_-1 label of the first x_t with a_t != 0, does not kill, then the rest.
On a Kac module the first half is independent (``_RankPlan`` proves it),
so the test stops after half of the block's columns.

The test runs in ints.  A support variety is a cone: X_{sa} = s X_a and
c(mu) scales by s^2, so the verdict at a equals the verdict at every nonzero
multiple of a.  So the point is scaled to the primitive int vector whose
first nonzero entry is positive, and ``empirical_support`` tests each such
vector once, however many sampled points it stands for.  Each module
groups its weight spaces once by the tuple (mu_{m+1-t} + mu_{m+t})_t of
x_t^2-eigenvalues (``_square_eigenvalues``).  Only the groups on which
every x_t with a_t != 0 squares to zero are eliminated: on every other
group of the zero block M0, x is free (``_deciding_block`` proves it), so
those groups cannot change the verdict.

Everything but the elimination depends on the point only through its
pattern, the set of t with a_t != 0.  So a module keeps one plan per
pattern (``_rank_plan``), built on the pattern's first point: the deciding
block in the order the test offers it, the block stability check, and
per block column the int column of each x_t with a_t != 0, the sum of its
two labels' stored int actions, which are the module's ``den`` times the
actions; that scales X by a nonzero constant, which changes no rank.  Only
those columns are read (``action_columns``), so a Kac module builds no
other column of the labels.  Per point, the test only combines the plan's
columns with the coordinates a_t and eliminates until the rank reaches
size/2.

The empirical support samples deterministic rational points with prescribed
coordinate support and reports which coordinate subspaces contain a
non-projective point.  The sampler has one setting, fixed here: seed
0xD15EA5E and 3 points per coordinate subset.  The non-projective locus is
closed and conic, so a subset lies in the support exactly when the generic
point of its torus is non-projective, and then every point of the torus
is.  So a reported family is wrong only when a sampled point falls on a
proper closed subset of its torus where the rank drops.  More points would
add chances of that, not remove one, so no setting makes the verdict
exact; that needs a certificate per pattern.  The points depend only on
(m, n), so they are drawn once per algebra (``_sample_plan``) and every
module of one algebra reuses them.  Resolution is coordinate subspaces
only: a union of non-coordinate subspaces would be under-reported.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import combinations
from math import gcd, lcm
from typing import NamedTuple

from .algebra import detecting_subalgebra, gl_superalgebra, same_algebra
from .atypicality import SupportDescription, defect, sorted_nonempty, theoretical_support
from .config import RunConfig
from .errors import ShapeMismatch, Unsupported, ZeroPoint
from .linalg import ONE, ZERO, IncrementalSpan, axpy, scalar
from .modules import SuperModuleRep, action_columns, simple_module
from .roots import Weight


@dataclass(frozen=True)
class OddPoint:
    """Coordinates of sum a_t x_t in the distinguished odd basis."""

    coords: tuple[Fraction, ...]

    @property
    def r(self) -> int:
        return len(self.coords)

    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coords)


def odd_point(coords) -> OddPoint:
    return OddPoint(tuple(scalar(c) for c in coords))


@dataclass(frozen=True)
class EmpiricalSupport:
    """Verdicts at sampled points plus the inferred coordinate-subspace family."""

    r: int
    tested: tuple[tuple[tuple[int, ...], tuple[Fraction, ...], bool], ...]
    subsets: frozenset[frozenset[int]]
    dim: int

    def nonempty_subsets(self) -> list[tuple[int, ...]]:
        return sorted_nonempty(self.subsets)


def _deciding_block(M: SuperModuleRep, a) -> list[int]:
    """Ascending indices of the groups on which every x_t with a_t != 0 squares to 0.

    These groups are the part of the zero block that can decide the verdict.
    Every x_t preserves every x_s^2-eigenspace, so X|M0 is block diagonal
    over the groups, and its rank is at most half of each.  On any other
    group of M0 some x_s with a_s != 0 has x_s^2 = k_s != 0, so x^2 = 0 and
    x x_s + x_s x = 2 a_s k_s.  With f = x_s / (2 a_s k_s), f' = f - f^2 x
    satisfies f'^2 = 0 and x f' + f' x = 1, so every v with x v = 0 is
    x (f' v): x has rank exactly half there, whatever the module.
    """
    ts = [t for t, x in enumerate(a) if x]
    block = []
    for key, idxs in M._square_eigenvalues.items():
        if not any(map(key.__getitem__, ts)):
            block += idxs
    block.sort()
    return block


def _primitive(point: OddPoint) -> tuple[int, ...]:
    """The point scaled to a primitive int vector whose first nonzero entry is positive."""
    den = lcm(*[x.denominator for x in point.coords])
    a = [x.numerator * (den // x.denominator) for x in point.coords]
    g = gcd(*a) if next(x for x in a if x) > 0 else -gcd(*a)
    return tuple(x // g for x in a)


class _RankPlan(NamedTuple):
    """The rank test of one nonzero pattern, all but the point's coordinates.

    ``size`` is the size of the deciding block.  ``columns`` lists its
    columns in the order the test offers them, each as the int columns of
    the x_t with a_t != 0, t ascending; empty when the size alone decides.
    Any order gives the verdict; this one is the columns that f_t0 does not
    kill, then the rest, each in block order, with t0 the first t with
    a_t != 0 and f_t in g_-1 the second label of ``generator_labels(t)``.
    On a Kac module f_t0 y_S v is nonzero exactly when f_t0 is not in S,
    and x sends y_S v to (f ^ y_S) v, one layer down, plus terms one layer
    up, with f = sum a_t f_t.  Wedging by f is injective on the y_S with
    f_t0 not in S, as a_t0 != 0, so in a vanishing combination of the X
    columns of that half the deepest layer's coefficients vanish: those
    columns are independent.  Toggling f_t0 in S keeps every
    x_t^2-eigenvalue, so they are half the block, and the test stops after
    size/2 adds.
    """

    size: int
    columns: tuple


def _rank_plan(M: SuperModuleRep, a) -> _RankPlan:
    """M's plan for the nonzero pattern of a, built on its first read and kept on M.

    A plan is published with one ``setdefault``, as ``_OnFirstRead``
    publishes a label, and only once its block stability check has passed:
    a module that fails it keeps no plan and fails again on every point of
    the pattern.
    """
    pattern = tuple(x != 0 for x in a)
    plan = M._rank_plans.get(pattern)
    if plan is None:
        plan = M._rank_plans.setdefault(pattern, _build_rank_plan(M, a))
    return plan


def _build_rank_plan(M: SuperModuleRep, a) -> _RankPlan:
    block = _deciding_block(M, a)
    size = len(block)
    if not size or size % 2:
        return _RankPlan(size, ())
    det = detecting_subalgebra(M.algebra.m, M.algebra.n)
    in_block = set(block)
    xs = []
    for t, x in enumerate(a):
        if not x:
            continue
        xt = {i: {} for i in block}
        xs.append(xt)
        for lab in det.generator_labels(t + 1):
            for i, col in zip(block, action_columns(M, lab, block)):
                # every label of X keeps the block, checked on each label up
                # front: the early exit leaves some columns of X unoffered
                if not in_block.issuperset(col):
                    raise ShapeMismatch("zero eigenblock is not action stable")
                axpy(xt[i], col.items(), ONE)
    # the columns f_t0 does not kill first, t0 the first t with a_t != 0
    f_t0 = det.generator_labels(next(t for t, x in enumerate(a) if x) + 1)[1]
    moved = dict(zip(block, action_columns(M, f_t0, block)))
    order = sorted(block, key=lambda i: not moved[i])
    return _RankPlan(size, tuple(zip(*[[xt[i] for i in order] for xt in xs])))


def is_projective_at(M: SuperModuleRep, point: OddPoint) -> bool:
    """Projectivity of M over the subalgebra generated by sum a_t x_t."""
    m, n = M.algebra.m, M.algebra.n
    if not same_algebra(M.algebra, gl_superalgebra(m, n)):
        raise Unsupported(f"the rank test needs a gl({m}|{n})-module, not {M.algebra.name}")
    r = defect(m, n)
    if point.r != r:
        raise ShapeMismatch(f"point has {point.r} coordinates, defect is {r}")
    if point.is_zero():
        raise ZeroPoint("the origin lies in every support variety by convention")
    # the support is a cone, so test the point scaled to a primitive int vector
    a = _primitive(point)
    size, columns = _rank_plan(M, a)
    if not size:
        return True
    if size % 2:
        return False
    # rank <= size/2 since X squares to 0 on the block, so stop once that bound is hit
    target = size // 2
    span = IncrementalSpan()
    coeffs = [x for x in a if x]
    for parts in columns:
        col = parts[0]  # one coordinate, scaled to 1: the column of x_t itself
        if len(coeffs) > 1:
            col = {}
            for xt, x in zip(parts, coeffs):
                axpy(col, xt.items(), x)
        if span.add(col) and span.dim == target:
            return True
    return 2 * span.dim == size


# the sampler's one setting (``_sample_plan``)
_SEED = 0xD15EA5E
_SAMPLES_PER_SUBSET = 3


def _fold_seed(seed: int, *values: int) -> int:
    s = seed & 0xFFFFFFFFFFFFFFFF
    for v in values:
        s = (s * 1000003 + v + 0x9E3779B9) & 0xFFFFFFFFFFFFFFFF
    return s


def _sample_point(seed: int, m: int, n: int, subset: tuple[int, ...], index: int,
                  r: int) -> OddPoint:
    rng = random.Random(_fold_seed(seed, m, n, len(subset), *subset, index))
    coords = []
    for t in range(1, r + 1):
        if t in subset:
            num = rng.randint(1, 9) * rng.choice((1, -1))
            den = rng.randint(1, 4)
            coords.append(Fraction(num, den))
        else:
            coords.append(ZERO)
    return OddPoint(tuple(coords))


@lru_cache(maxsize=None)
def _sample_plan(m: int, n: int) -> tuple:
    """The points ``empirical_support`` tests, in order, as (subset, point, primitive key)."""
    r = defect(m, n)
    plan = []
    for size in range(1, r + 1):
        for subset in combinations(range(1, r + 1), size):
            for k in range(_SAMPLES_PER_SUBSET):
                pt = _sample_point(_SEED, m, n, subset, k, r)
                plan.append((subset, pt, _primitive(pt)))
    return tuple(plan)


def empirical_support(M: SuperModuleRep) -> EmpiricalSupport:
    """Test every nonempty coordinate subset at the sampler's fixed rational points.

    A subset is reported in the support if any of its sampled points is
    non-projective; the inferred dimension is the largest reported size.
    The points are ``_sample_plan(m, n)``, the same for every module of one
    algebra, with nothing to set.
    """
    m, n = M.algebra.m, M.algebra.n
    r = defect(m, n)
    tested = []
    found = set()
    # the support is a cone: one test per point up to scale
    verdicts: dict = {}
    for subset, pt, key in _sample_plan(m, n):
        verdict = verdicts.get(key)
        if verdict is None:
            verdict = verdicts[key] = is_projective_at(M, pt)
        tested.append((subset, pt.coords, verdict))
        if not verdict:
            found.add(frozenset(subset))
    dim = max((len(s) for s in found), default=0)
    return EmpiricalSupport(r=r, tested=tuple(tested), subsets=frozenset(found), dim=dim)


def atyp_module(M: SuperModuleRep) -> int:
    """Atypicality of an arbitrary module: dimension of its empirical support."""
    return empirical_support(M).dim


@dataclass(frozen=True)
class SupportComparison:
    lam: Weight
    theoretical: SupportDescription
    empirical: EmpiricalSupport
    match: bool
    only_theoretical: tuple[tuple[int, ...], ...]
    only_empirical: tuple[tuple[int, ...], ...]


def compare_support(lam: Weight, budget: int = RunConfig.dimension_budget) -> SupportComparison:
    """Build L(lam), sample its support, and diff against the closed form."""
    theo = theoretical_support(lam)
    L = simple_module(lam, budget)
    emp = empirical_support(L)
    only_theo = sorted_nonempty(theo.subsets - emp.subsets)
    only_emp = sorted_nonempty(emp.subsets - theo.subsets)
    match = not only_theo and not only_emp and theo.dim == emp.dim
    return SupportComparison(
        lam=lam, theoretical=theo, empirical=emp, match=match,
        only_theoretical=tuple(only_theo), only_empirical=tuple(only_emp),
    )
