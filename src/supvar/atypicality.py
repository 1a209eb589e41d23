"""Defect and atypicality for gl(m|n) weights.

The fast path reduces atypicality to a multiset intersection: the odd root
eps_i - eps_j is orthogonal to lam + rho exactly when (lam+rho)_i equals
-(lam+rho)_j, and two distinct isotropic roots are orthogonal exactly when
their first indices differ and their second indices differ.  The brute-force
oracle guards that reduction by searching literal sets of pairwise
orthogonal, linearly independent isotropic roots.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

from .errors import InvariantBroken, NotDominant, TooLarge
from .linalg import span_dim
from .roots import Root, Weight, bilinear_form, is_dominant_integral, rho, root_system


@dataclass(frozen=True)
class AtypicalityCertificate:
    value: int
    witness: tuple[Root, ...]


@dataclass(frozen=True)
class SupportDescription:
    """A union of coordinate subspaces of the odd part of the detecting subalgebra.

    ``subsets`` is the family of index subsets of {1..r} (the empty set stands
    for the origin); ``dim`` is the dimension of the union.  For simples the
    full-algebra support is an affine space of dimension ``g_support_dim``.
    """

    r: int
    subsets: frozenset[frozenset[int]]
    dim: int
    g_support_dim: int

    def nonempty_subsets(self) -> list[tuple[int, ...]]:
        return sorted_nonempty(self.subsets)


def sorted_nonempty(family) -> list[tuple[int, ...]]:
    """The nonempty sets of a family as sorted tuples, by size, then lexicographically."""
    return sorted((tuple(sorted(s)) for s in family if s), key=lambda s: (len(s), s))


def defect(m: int, n: int) -> int:
    """Maximal number of independent pairwise orthogonal isotropic roots."""
    if m < 1 or n < 1:
        raise ValueError("m, n must be >= 1")
    return min(m, n)


def atypicality(lam: Weight) -> AtypicalityCertificate:
    """Atypicality of lam with an explicit witness set of roots.

    The witness pairs the smallest available first-block index with the
    smallest available second-block index realizing each matched value, so
    certificates are deterministic.
    """
    m, n = lam.m, lam.n
    shifted = lam + rho(m, n)
    used_j: set[int] = set()
    witness = []
    for i in range(1, m + 1):
        target = -shifted.coords[i - 1]
        for j in range(m + 1, m + n + 1):
            if j not in used_j and shifted.coords[j - 1] == target:
                used_j.add(j)
                witness.append(Root(m, n, i, j))
                break
    cert = AtypicalityCertificate(len(witness), tuple(witness))
    if cert.value > defect(m, n):
        raise InvariantBroken(f"atypicality {cert.value} exceeds the defect {defect(m, n)}")
    return cert


def atypicality_oracle(lam: Weight) -> int:
    """Literal search for the largest admissible set of isotropic roots.

    Enumerates subsets of all 2mn odd roots, requiring pairwise orthogonality,
    orthogonality to lam + rho, and linear independence (without independence
    a root and its negative would count as a size-two set).  Backtracking with
    mn <= 20.
    """
    m, n = lam.m, lam.n
    if m * n > 20:
        raise TooLarge(f"oracle bound is mn <= 20, got {m * n}")
    shifted = lam + rho(m, n)
    # every odd root of gl(m|n) is isotropic
    candidates = [
        r
        for r in root_system(m, n).odd_roots
        if bilinear_form(r.as_weight(), shifted) == 0
    ]
    pair_ok = {}
    for a, b in combinations(range(len(candidates)), 2):
        va, vb = candidates[a].as_weight(), candidates[b].as_weight()
        pair_ok[(a, b)] = bilinear_form(va, vb) == 0
    best = 0

    def independent(indices: list[int]) -> bool:
        vectors = [candidates[i].as_weight().coords for i in indices]
        return span_dim(vectors) == len(vectors)

    def extend(chosen: list[int], start: int):
        nonlocal best
        best = max(best, len(chosen))
        if len(chosen) + (len(candidates) - start) <= best:
            return
        for nxt in range(start, len(candidates)):
            if all(pair_ok[(min(c, nxt), max(c, nxt))] for c in chosen):
                chosen.append(nxt)
                if independent(chosen):
                    extend(chosen, nxt + 1)
                chosen.pop()

    extend([], 0)
    return best


def theoretical_support(lam: Weight) -> SupportDescription:
    """Closed-form support of the simple module with highest weight lam.

    With k the atypicality and r the defect, the support inside the odd part
    of the detecting subalgebra is the union of all coordinate subspaces with
    at most k nonzero coordinates; the full-algebra support is k-dimensional
    affine space.
    """
    if not is_dominant_integral(lam):
        raise NotDominant(f"{lam} is not dominant integral")
    r = defect(lam.m, lam.n)
    k = atypicality(lam).value
    subsets = frozenset(
        frozenset(c) for size in range(k + 1) for c in combinations(range(1, r + 1), size)
    )
    return SupportDescription(r=r, subsets=subsets, dim=k, g_support_dim=k)
