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

The test runs in ints.  A support variety is a cone: X_{sa} = s X_a and
c(mu) scales by s^2, so the verdict at a equals the verdict at a scaled by
the lcm of its denominators, whose coordinates are ints.  Each
module groups its basis once by the tuple (mu_{m+1-t} + mu_{m+t})_t of
x_t^2-eigenvalues, so M0 is the union of the groups on which c vanishes,
found per point without a loop over the weights.  The columns of X|M0 are
int combinations of the stored int actions of the 2r labels of the x_t,
which are the module's ``den`` times the actions; that scales X by a
nonzero constant, which changes no rank.

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
from math import lcm

from .algebra import detecting_subalgebra
from .atypicality import SupportDescription, defect, theoretical_support
from .config import DEFAULT_SEED, RunConfig
from .errors import ShapeMismatch, ZeroPoint
from .linalg import ZERO, IncrementalSpan, axpy, scalar
from .modules import SuperModuleRep, simple_module
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

    def support(self) -> tuple[int, ...]:
        return tuple(t + 1 for t, c in enumerate(self.coords) if c)


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
        return sorted((tuple(sorted(s)) for s in self.subsets), key=lambda s: (len(s), s))


def _ambient_mn(M: SuperModuleRep) -> tuple[int, int]:
    m, n = M.algebra.m, M.algebra.n
    if m is None or n is None:
        raise ShapeMismatch("module algebra does not carry gl(m|n) data")
    return m, n


def _zero_block(M: SuperModuleRep, a) -> list[int]:
    """Ascending indices of the basis vectors that x^2 kills, x = sum a_t x_t."""
    return sorted(i for key, idxs in M._square_eigenvalues.items()
                  if not sum(x * x * k for x, k in zip(a, key)) for i in idxs)


def _zero_block_rank_test(M: SuperModuleRep, point: OddPoint) -> bool:
    m, n = _ambient_mn(M)
    r = defect(m, n)
    if point.r != r:
        raise ShapeMismatch(f"point has {point.r} coordinates, defect is {r}")
    # the support is a cone, so test the point scaled to ints
    den = lcm(*[x.denominator for x in point.coords])
    a = [x.numerator * (den // x.denominator) for x in point.coords]

    zero_block = _zero_block(M, a)
    if not zero_block:
        return True
    size = len(zero_block)
    if size % 2:
        return False

    det = detecting_subalgebra(m, n)
    terms = [(M.actions.get(lab, {}), x) for t, x in enumerate(a) if x
             for lab in det.generator_labels(t + 1)]
    in_block = set(zero_block)
    columns = []
    for i in zero_block:
        col: dict = {}
        for action, x in terms:
            axpy(col, action.get(i, {}).items(), x)
        if not in_block.issuperset(col):
            raise ShapeMismatch("zero eigenblock is not action stable")
        columns.append(col)

    # rank(X|M0) <= size/2 since X|M0 squares to 0, so stop once that bound is hit
    target = size // 2
    span = IncrementalSpan()
    for col in columns:
        if span.add(col) and span.dim == target:
            return True
    return 2 * span.dim == size


def is_projective_at(M: SuperModuleRep, point: OddPoint) -> bool:
    """Projectivity of M over the subalgebra generated by sum a_t x_t."""
    if point.is_zero():
        raise ZeroPoint("the origin lies in every support variety by convention")
    return _zero_block_rank_test(M, point)


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
    m, n = _ambient_mn(M)
    r = defect(m, n)
    tested = []
    found = set()
    for size in range(1, r + 1):
        for subset in combinations(range(1, r + 1), size):
            for k in range(samples_per_subset):
                pt = _sample_point(seed, m, n, subset, k, r)
                verdict = is_projective_at(M, pt)
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
    theo_nonempty = {s for s in theo.subsets if s}
    only_theo = sorted((tuple(sorted(s)) for s in theo_nonempty - emp.subsets),
                       key=lambda s: (len(s), s))
    only_emp = sorted((tuple(sorted(s)) for s in emp.subsets - theo_nonempty),
                      key=lambda s: (len(s), s))
    match = not only_theo and not only_emp and theo.dim == emp.dim
    return SupportComparison(
        lam=lam, theoretical=theo, empirical=emp, match=match,
        only_theoretical=tuple(only_theo), only_empirical=tuple(only_emp),
    )
