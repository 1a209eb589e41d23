"""Root data for gl(m|n) in the epsilon basis.

Weights are coordinate vectors for eps_1, ..., eps_{m+n}, split into an
m-block and an n-block.  The supersymmetric form is (eps_i, eps_j) = delta
for i <= m and -delta for i > m, so the odd roots eps_i - eps_j (one index in
each block) are isotropic.  Everything is exact rational: an integral
coordinate is stored as an ``int`` and any other as a ``Fraction``, so
integral weights add in ints.  ``Fraction(2) == 2`` and both hash alike, so
equality, hashing and sorting do not see the difference.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from operator import add, neg, sub
from typing import Sequence

from .errors import InvariantBroken, NotDominant, ShapeMismatch, WeightParseError
from .linalg import ONE, ZERO, format_scalar, scalar


@dataclass(frozen=True)
class Weight:
    """An element of h* for gl(m|n), stored in eps coordinates."""

    m: int
    n: int
    coords: tuple[int | Fraction, ...]

    def __post_init__(self):
        if len(self.coords) != self.m + self.n:
            raise ShapeMismatch("coordinate count must be m + n")

    @property
    def first_block(self) -> tuple[int | Fraction, ...]:
        return self.coords[: self.m]

    @property
    def second_block(self) -> tuple[int | Fraction, ...]:
        return self.coords[self.m :]

    def __add__(self, other: "Weight") -> "Weight":
        _check_shape(self, other)
        return Weight(self.m, self.n, _exact(map(add, self.coords, other.coords)))

    def __sub__(self, other: "Weight") -> "Weight":
        _check_shape(self, other)
        return Weight(self.m, self.n, _exact(map(sub, self.coords, other.coords)))

    def __neg__(self) -> "Weight":
        return Weight(self.m, self.n, tuple(map(neg, self.coords)))

    def scale(self, c) -> "Weight":
        c = scalar(c)
        return Weight(self.m, self.n, _exact(c * a for a in self.coords))

    def __str__(self):
        return format_weight(self)


def _exact(values) -> tuple:
    """Exact coordinates: ints stay ints, and an integral Fraction becomes one."""
    return tuple(x if type(x) is int or x.denominator != 1 else x.numerator for x in values)


def weight(m: int, n: int, coords: Sequence) -> Weight:
    return Weight(m, n, _exact(map(scalar, coords)))


def zero_weight(m: int, n: int) -> Weight:
    return Weight(m, n, (0,) * (m + n))


def eps(m: int, n: int, i: int) -> Weight:
    """The functional picking out the i-th diagonal entry (1-based)."""
    coords = [0] * (m + n)
    coords[i - 1] = 1
    return Weight(m, n, tuple(coords))


def parse_weight(m: int, n: int, text: str) -> Weight:
    """Parse ``a1,...,am|b1,...,bn`` with integer or p/q entries."""
    parts = text.split("|")
    if len(parts) != 2:
        raise WeightParseError(f"expected one '|' in weight string {text!r}")
    try:
        first = [scalar(t) for t in parts[0].split(",")] if parts[0].strip() else []
        second = [scalar(t) for t in parts[1].split(",")] if parts[1].strip() else []
    except (ValueError, ZeroDivisionError, TypeError) as exc:
        raise WeightParseError(f"bad weight entry in {text!r}: {exc}") from exc
    if len(first) != m or len(second) != n:
        raise WeightParseError(
            f"weight {text!r} has block sizes {len(first)}|{len(second)}, expected {m}|{n}"
        )
    return Weight(m, n, _exact(first + second))


def format_weight(w: Weight) -> str:
    first = ",".join(format_scalar(c) for c in w.first_block)
    second = ",".join(format_scalar(c) for c in w.second_block)
    return f"{first}|{second}"


@dataclass(frozen=True)
class Root:
    """eps_i - eps_j with i != j (1-based indices)."""

    m: int
    n: int
    i: int
    j: int

    @property
    def parity(self) -> int:
        return 1 if (self.i <= self.m) != (self.j <= self.m) else 0

    @property
    def positive(self) -> bool:
        return self.i < self.j

    def as_weight(self) -> Weight:
        return eps(self.m, self.n, self.i) - eps(self.m, self.n, self.j)

    def __str__(self):
        return f"eps{self.i}-eps{self.j}"


class RootSystemGL:
    """All roots of gl(m|n), with the positive and the odd ones."""

    def __init__(self, m: int, n: int):
        if m < 1 or n < 1:
            raise ValueError("m, n must be >= 1")
        self.m, self.n = m, n
        size = m + n
        self.roots = tuple(
            Root(m, n, i, j) for i in range(1, size + 1) for j in range(1, size + 1) if i != j
        )
        self.positive_roots = tuple(r for r in self.roots if r.positive)
        self.odd_roots = tuple(r for r in self.roots if r.parity == 1)


@lru_cache(maxsize=None)
def root_system(m: int, n: int) -> RootSystemGL:
    return RootSystemGL(m, n)


def _check_shape(w1: Weight, w2: Weight):
    if (w1.m, w1.n) != (w2.m, w2.n):
        raise ShapeMismatch(f"weights live over gl({w1.m}|{w1.n}) and gl({w2.m}|{w2.n})")


def bilinear_form(w1: Weight, w2: Weight) -> Fraction:
    """Supersymmetric form: + on the first block, - on the second."""
    _check_shape(w1, w2)
    m = w1.m
    total = ZERO
    for k, (a, b) in enumerate(zip(w1.coords, w2.coords)):
        total += a * b if k < m else -a * b
    return total


def rho(m: int, n: int) -> Weight:
    """Half the signed sum of positive roots (even minus odd)."""
    two_rho = zero_weight(m, n)
    for r in root_system(m, n).positive_roots:
        if r.parity == 0:
            two_rho = two_rho + r.as_weight()
        else:
            two_rho = two_rho - r.as_weight()
    return two_rho.scale(Fraction(1, 2))


def is_dominant_integral(w: Weight) -> bool:
    """Integer coordinates, weakly decreasing within each block."""
    if any(c.denominator != 1 for c in w.coords):
        return False
    first, second = w.first_block, w.second_block
    return all(first[i] >= first[i + 1] for i in range(len(first) - 1)) and all(
        second[i] >= second[i + 1] for i in range(len(second) - 1)
    )


def _weyl_block_dim(block: Sequence[Fraction]) -> Fraction:
    d = ONE
    k = len(block)
    for i in range(k):
        for j in range(i + 1, k):
            d *= Fraction(block[i] - block[j] + j - i, j - i)
    return d


def dim_L0(w: Weight) -> int:
    """Weyl dimension of the simple gl(m) x gl(n) module of highest weight w."""
    if not is_dominant_integral(w):
        raise NotDominant(f"{format_weight(w)} is not dominant integral")
    d = _weyl_block_dim(w.first_block) * _weyl_block_dim(w.second_block)
    if d.denominator != 1 or d <= 0:
        raise InvariantBroken(f"Weyl dimension {d} is not a positive integer")
    return int(d)
