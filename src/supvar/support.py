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
On a Kac module the first half of the columns offered is independent
(``_free_half_first``), so it stops after half of the block's columns.

The test runs in ints.  A support variety is a cone: X_{sa} = s X_a and
c(mu) scales by s^2, so the verdict at a equals the verdict at every nonzero
multiple of a.  So the point is scaled to the primitive int vector whose
first nonzero entry is positive, and ``empirical_support`` tests each such
vector once, however many sampled points it stands for.  Each module
groups its weight spaces once by the tuple (mu_{m+1-t} + mu_{m+t})_t of
x_t^2-eigenvalues (``_square_eigenvalues``), so M0 is the union of the
groups on which c vanishes, found per point without a loop over the
weights.  Only the groups of M0 on which every x_t with a_t != 0 squares
to zero are eliminated: on every other group of M0, x is free
(``_deciding_block`` proves it), so those groups cannot change the verdict.
The columns of X there are int combinations of the stored int actions of
the labels of the x_t with a_t != 0, which are the module's ``den`` times
the actions; that scales X by a nonzero constant, which changes no rank.
Only those columns are read (``action_column``), so a Kac module builds no
other column of the labels.

The empirical support samples deterministic rational points with prescribed
coordinate support and reports which coordinate subspaces contain a
non-projective point.  Resolution is coordinate subspaces only: a union of
non-coordinate subspaces would be under-reported.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from math import gcd, lcm

from .algebra import detecting_subalgebra
from .atypicality import SupportDescription, defect, sorted_nonempty, theoretical_support
from .config import DEFAULT_SEED, RunConfig
from .errors import ShapeMismatch, ZeroPoint
from .linalg import ZERO, IncrementalSpan, axpy, scalar
from .modules import SuperModuleRep, action_column, simple_module
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
    return sorted(i for key, idxs in M._square_eigenvalues.items()
                  if not any(k for x, k in zip(a, key) if x) for i in idxs)


def _free_half_first(M: SuperModuleRep, a, block: list[int]) -> list[int]:
    """The block, with the Kac basis vectors y_S v with f_{t0} not in S first.

    Here t0 is the first t with a_t != 0 and f_t, the second label of
    ``generator_labels(t)``, is the g_-1 part of x_t.  On a Kac module x
    sends y_S v to (f ^ y_S) v, one layer down, plus terms one layer up,
    with f = sum a_t f_t.  Wedging by f is injective on the y_S with f_{t0}
    not in S, since f_{t0} lies in f with the coefficient a_{t0} != 0.  So
    in a vanishing combination of the X columns of that half, the deepest
    layer's coefficients vanish, and those columns are independent.
    Toggling f_{t0} in S keeps every x_t^2-eigenvalue, so that half is half
    the block, and the rank test stops after its size/2 columns.  Any other
    module keeps the block order.
    """
    if M.meta.get("kind") != "kac":
        return block
    t0 = next(t for t, x in enumerate(a) if x) + 1
    f_t0 = detecting_subalgebra(M.algebra.m, M.algebra.n).generator_labels(t0)[1]
    table, D = M.meta["table"], M.meta["l0_dim"]
    f = table.y_labels.index(f_t0)
    return sorted(block, key=lambda i: f in table.subsets[i // D])


def _primitive(point: OddPoint) -> tuple[int, ...]:
    """The point scaled to a primitive int vector whose first nonzero entry is positive."""
    den = lcm(*[x.denominator for x in point.coords])
    a = [x.numerator * (den // x.denominator) for x in point.coords]
    g = gcd(*a) if next(x for x in a if x) > 0 else -gcd(*a)
    return tuple(x // g for x in a)


def is_projective_at(M: SuperModuleRep, point: OddPoint) -> bool:
    """Projectivity of M over the subalgebra generated by sum a_t x_t."""
    if point.is_zero():
        raise ZeroPoint("the origin lies in every support variety by convention")
    m, n = M.algebra.m, M.algebra.n
    r = defect(m, n)
    if point.r != r:
        raise ShapeMismatch(f"point has {point.r} coordinates, defect is {r}")
    # the support is a cone, so test the point scaled to a primitive int vector
    a = _primitive(point)

    block = _deciding_block(M, a)
    if not block:
        return True
    size = len(block)
    if size % 2:
        return False

    det = detecting_subalgebra(m, n)
    terms = [({i: action_column(M, lab, i) for i in block}, x) for t, x in enumerate(a) if x
             for lab in det.generator_labels(t + 1)]
    in_block = set(block)
    # every label of X keeps the block, checked on each label up front: the
    # early exit leaves some columns of X unoffered
    for action, _ in terms:
        if not all(in_block.issuperset(col) for col in action.values()):
            raise ShapeMismatch("zero eigenblock is not action stable")

    # rank <= size/2 since X squares to 0 on the block, so stop once that bound is hit
    target = size // 2
    span = IncrementalSpan()
    for i in _free_half_first(M, a, block):
        col: dict = {}
        for action, x in terms:
            axpy(col, action[i].items(), x)
        if span.add(col) and span.dim == target:
            return True
    return 2 * span.dim == size


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


def empirical_support(M: SuperModuleRep, samples_per_subset: int = RunConfig.samples_per_subset,
                      seed: int = DEFAULT_SEED) -> EmpiricalSupport:
    """Test every nonempty coordinate subset at sampled rational points.

    A subset is reported in the support if any of its sampled points is
    non-projective; the inferred dimension is the largest reported size.
    """
    if samples_per_subset < 1:
        raise ValueError("samples_per_subset must be >= 1")
    m, n = M.algebra.m, M.algebra.n
    r = defect(m, n)
    tested = []
    found = set()
    # the support is a cone: one test per point up to scale
    verdicts: dict = {}
    for size in range(1, r + 1):
        for subset in combinations(range(1, r + 1), size):
            for k in range(samples_per_subset):
                pt = _sample_point(seed, m, n, subset, k, r)
                key = _primitive(pt)
                verdict = verdicts.get(key)
                if verdict is None:
                    verdict = verdicts[key] = is_projective_at(M, pt)
                tested.append((subset, pt.coords, verdict))
                if not verdict:
                    found.add(frozenset(subset))
    dim = max((len(s) for s in found), default=0)
    return EmpiricalSupport(r=r, tested=tuple(tested), subsets=frozenset(found), dim=dim)


def atyp_module(M: SuperModuleRep, samples_per_subset: int = RunConfig.samples_per_subset,
                seed: int = DEFAULT_SEED) -> int:
    """Atypicality of an arbitrary module: dimension of its empirical support."""
    return empirical_support(M, samples_per_subset, seed).dim


@dataclass(frozen=True)
class SupportComparison:
    lam: Weight
    theoretical: SupportDescription
    empirical: EmpiricalSupport
    match: bool
    only_theoretical: tuple[tuple[int, ...], ...]
    only_empirical: tuple[tuple[int, ...], ...]


def compare_support(lam: Weight, samples_per_subset: int = RunConfig.samples_per_subset,
                    seed: int = DEFAULT_SEED,
                    budget: int = RunConfig.dimension_budget) -> SupportComparison:
    """Build L(lam), sample its support, and diff against the closed form."""
    theo = theoretical_support(lam)
    L = simple_module(lam, budget)
    emp = empirical_support(L, samples_per_subset, seed)
    only_theo = sorted_nonempty(theo.subsets - emp.subsets)
    only_emp = sorted_nonempty(emp.subsets - theo.subsets)
    match = not only_theo and not only_emp and theo.dim == emp.dim
    return SupportComparison(
        lam=lam, theoretical=theo, empirical=emp, match=match,
        only_theoretical=tuple(only_theo), only_empirical=tuple(only_emp),
    )
