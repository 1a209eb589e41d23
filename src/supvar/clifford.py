"""Clifford block data for odd abelian-type subalgebras, and divisibility laws.

Given odd elements spanning c_1 with c_0 = [c_1, c_1] abelian and central in
c, a character chi of c_0 induces the symmetric form (x, y) = chi([x, y]) on
c_1.  With z the radical dimension of that form, n = dim c_1 - z and
n~ = floor((n+1)/2), the block determined by chi has a unique simple of
dimension 2^{n~}, of type M for n even and type Q for n odd, whose projective
cover has dimension 2^{dim c_1 - n~} (type M) or 2^{dim c_1 - n~ + 1}
(type Q), always of superdimension zero.  The numerical consequence is the
two-divisibility law: a module whose support has codimension d inside the
full odd part has dimension divisible by 2^{floor(d/2)}, and superdimension
zero once d > 0.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .algebra import LieSuperalgebraData
from .atypicality import atypicality, defect
from .config import RunConfig
from .errors import AssumptionViolated, BadCodimension
from .linalg import ZERO, scalar, span_dim
from .modules import simple_module
from .roots import Weight


@dataclass(frozen=True)
class OddFormData:
    dim_c1: int
    gram: tuple[tuple[Fraction, ...], ...]
    z: int
    n: int
    n_tilde: int


def odd_form_data(rows) -> OddFormData:
    """Radical data of a square symmetric Gram matrix given as plain rows.

    Entries are ints, Fractions (a non-integral weight gives those) or
    ``p/q`` strings; ``span_dim`` ranks the rows, scaling each to ints.
    """
    gram = tuple(tuple(scalar(x) for x in row) for row in rows)
    dim_c1 = len(gram)
    if any(len(row) != dim_c1 for row in gram):
        raise AssumptionViolated("Gram matrix must be square")
    if gram != tuple(zip(*gram)):
        raise AssumptionViolated("Gram matrix must be symmetric")
    n = span_dim(gram)
    return OddFormData(dim_c1=dim_c1, gram=gram, z=dim_c1 - n, n=n, n_tilde=(n + 1) // 2)


@dataclass(frozen=True)
class BlockClassification:
    simple_dim: int
    simple_type: str          # "M" or "Q"
    projective_dim: int
    simple_superdim_zero: bool
    projective_superdim_zero: bool = True


def classify_block(form: OddFormData) -> BlockClassification:
    """Unique simple and projective cover sizes of the block of a character."""
    n, nt = form.n, form.n_tilde
    simple_type = "M" if n % 2 == 0 else "Q"
    projective_dim = 2 ** (form.dim_c1 - nt) if simple_type == "M" else 2 ** (form.dim_c1 - nt + 1)
    return BlockClassification(
        simple_dim=2**nt,
        simple_type=simple_type,
        projective_dim=projective_dim,
        simple_superdim_zero=n > 0,
    )


def _evaluate_character(chi, element: dict) -> Fraction:
    if isinstance(chi, Weight):
        total = ZERO
        for (_, a, b), coeff in element.items():
            if a == b:
                total += coeff * chi.coords[a - 1]
        return total
    if isinstance(chi, dict):
        return sum((coeff * chi.get(lab, ZERO) for lab, coeff in element.items()), ZERO)
    return chi(element)


def form_from_subalgebra(g: LieSuperalgebraData, xs, chi) -> OddFormData:
    """Gram matrix chi([x_i, x_j]) after checking the structural hypotheses.

    Requires every x to be odd, c_0 = [c_1, c_1] abelian, and [c_0, c_1] = 0.
    chi may be a Weight (evaluated on diagonal coordinates), a dict of values
    on basis labels, or a callable on sparse elements.
    """
    xs = [dict(x) for x in xs]
    for k, x in enumerate(xs):
        if any(not g.parity[lab] for lab in x):
            raise AssumptionViolated(f"generator {k + 1} is not odd")
    brackets = {}
    for i, xi in enumerate(xs):
        for j, xj in enumerate(xs):
            if i <= j:
                brackets[(i, j)] = g.bracket_elements(xi, xj)
    for (i, j), bij in brackets.items():
        for (k, l), bkl in brackets.items():
            if g.bracket_elements(bij, bkl):
                raise AssumptionViolated(
                    f"[[x{i+1},x{j+1}], [x{k+1},x{l+1}]] != 0: even part is not abelian"
                )
        for k, xk in enumerate(xs):
            if g.bracket_elements(bij, xk):
                raise AssumptionViolated(
                    f"[[x{i+1},x{j+1}], x{k+1}] != 0: even part is not central"
                )
    size = len(xs)
    rows = [
        [_evaluate_character(chi, brackets[(min(i, j), max(i, j))]) for j in range(size)]
        for i in range(size)
    ]
    return odd_form_data(rows)


@dataclass(frozen=True)
class DivisibilityReport:
    dim: int
    superdim: int
    codim: int
    divisor: int
    divides: bool
    superdim_ok: bool

    @property
    def passed(self) -> bool:
        return self.divides and self.superdim_ok


def divisibility_check(dim_M: int, superdim_M: int, support_dim: int,
                       ambient_support_dim: int) -> DivisibilityReport:
    """Codimension-to-two-divisibility law, and the superdimension clause."""
    if support_dim > ambient_support_dim:
        raise BadCodimension(
            f"support dimension {support_dim} exceeds ambient {ambient_support_dim}"
        )
    d = ambient_support_dim - support_dim
    divisor = 2 ** (d // 2)
    return DivisibilityReport(
        dim=dim_M,
        superdim=superdim_M,
        codim=d,
        divisor=divisor,
        divides=dim_M % divisor == 0,
        superdim_ok=(d == 0) or (superdim_M == 0),
    )


@dataclass(frozen=True)
class SimpleDivisibilityReport(DivisibilityReport):
    lam: Weight
    r: int
    atyp: int


def simple_divisibility(lam: Weight,
                        budget: int = RunConfig.dimension_budget) -> SimpleDivisibilityReport:
    """2^{floor((r-a)/2)} divides dim L(lam); superdimension 0 when a < r.

    This is ``divisibility_check`` with the support dimension a = atyp(lam)
    inside the ambient r = defect: codimension r - a.
    """
    r = defect(lam.m, lam.n)
    a = atypicality(lam).value
    L = simple_module(lam, budget)
    law = divisibility_check(L.dim, L.superdimension, a, r)
    return SimpleDivisibilityReport(**vars(law), lam=lam, r=r, atyp=a)
