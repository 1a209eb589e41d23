"""Exact rational linear algebra over one sparse elimination engine.

All arithmetic is over Q using ``fractions.Fraction`` (arbitrary precision,
always reduced, positive denominator), so nothing here ever rounds.
``IncrementalSpan`` holds the only elimination loop in the package: sparse
vectors are reduced one at a time against the rows accepted so far.
``rank``, ``kernel_basis``, ``solve``, ``column_kernel``, ``span_dim`` and
``quotient_dim`` are thin wrappers over it, and ``RationalMatrix`` is a dense,
immutable container for their inputs.

No result depends on the pivot order.  Ranks and span membership are
invariants of the subspace, and coordinates over independent vectors are
unique.  Kernels come from column relations: adding the columns in order,
column j either enlarges the span or is a unique combination of the earlier
columns that did.  In the second case the kernel vector is 1 at j, minus
those coefficients on the earlier columns, and 0 elsewhere.  That is the
basis read off the reduced row echelon form, whichever rows the elimination
pivots on.  ``solve`` expresses the right-hand side over the same columns, so
its free variables are 0.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Sequence

from .errors import ImageNotContained, ShapeMismatch

Scalar = Fraction

ZERO = Fraction(0)
ONE = Fraction(1)


def scalar(value) -> Fraction:
    """Coerce an int, Fraction, or ``p/q`` string to an exact rational."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        return Fraction(value.strip())
    raise TypeError(f"cannot interpret {value!r} as an exact rational")


def format_scalar(q: Fraction) -> str:
    """Render a rational as ``p`` or ``p/q`` (lowest terms, q > 0)."""
    if q.denominator == 1:
        return str(q.numerator)
    return f"{q.numerator}/{q.denominator}"


def axpy(out: dict, items: Iterable, c) -> None:
    """out += c * vec for a sparse vec given as (key, value) pairs.

    Entries that cancel to zero are removed, so sparse vectors never store
    zeros and an empty dict is the zero vector.  Missing keys start at int 0,
    so Fraction inputs give Fractions and int inputs stay ints.  The product
    is skipped for c = ONE, the coefficient of basis vectors, which saves a
    Fraction multiplication per entry on the commonest call.
    """
    unit = c is ONE
    for k, v in items:
        nv = out.get(k, 0) + (v if unit else c * v)
        if nv:
            out[k] = nv
        else:
            out.pop(k, None)


class RationalMatrix:
    """Immutable dense matrix over Q."""

    __slots__ = ("rows", "cols", "entries")

    def __init__(self, entries: Iterable[Iterable]):
        rows = tuple(tuple(scalar(x) for x in row) for row in entries)
        self.entries = rows
        self.rows = len(rows)
        self.cols = len(rows[0]) if rows else 0
        for row in rows:
            if len(row) != self.cols:
                raise ShapeMismatch("ragged rows")

    def transpose(self) -> "RationalMatrix":
        return RationalMatrix(zip(*self.entries))

    def __eq__(self, other):
        return isinstance(other, RationalMatrix) and self.entries == other.entries

    def __repr__(self):
        body = "; ".join(" ".join(format_scalar(x) for x in row) for row in self.entries)
        return f"RationalMatrix[{self.rows}x{self.cols}]({body})"


class IncrementalSpan:
    """Growable subspace with exact membership and coordinates.

    Vectors are sparse dicts ``{key: value}`` or dense sequences (keys
    0..n-1).  Keys may be any hashables, of mixed types: each is numbered the
    first time the span sees it and only those numbers are ever compared.  A
    new row pivots on its most recently numbered key, which keeps fill-in
    lower than the oldest key on the zero-block rank test.

    Each accepted row keeps only the multipliers of its own reduction.  The
    rows' coordinates over the accepted vectors are assembled from those, in
    acceptance order, the first time ``express`` needs them, so callers that
    only add vectors never pay for coordinates.
    """

    def __init__(self):
        self._numbers: dict = {}  # key -> number, in order of first sight
        self._rows: list = []     # (pivot, row scaled to pivot entry 1), in acceptance order
        self._steps: list = []    # per accepted vector: (1 / pivot entry, [(index, multiplier)])
        self._coords: list = []   # per accepted row: its combination of accepted vectors

    def _sparse(self, vec) -> dict:
        numbers = self._numbers
        out = {}
        for key, x in vec.items() if isinstance(vec, dict) else enumerate(vec):
            if x:
                k = numbers.get(key)
                if k is None:
                    k = numbers[key] = len(numbers)
                out[k] = scalar(x)
        return out

    def _reduce(self, vec: dict) -> list:
        """Clear every pivot from vec in place; returns the multipliers used.

        A row is zero at the pivots of the rows accepted before it, so one
        pass in acceptance order clears them all.
        """
        steps = []
        for index, (pivot, row) in enumerate(self._rows):
            c = vec.get(pivot)
            if c:
                axpy(vec, row.items(), -c)
                steps.append((index, c))
                if not vec:
                    break
        return steps

    def _place(self, vec) -> list | None:
        """Accept vec and return None if it is new, else return its multipliers."""
        vec = self._sparse(vec)
        steps = self._reduce(vec)
        if not vec:
            return steps
        pivot = max(vec)
        inv = ONE / vec[pivot]
        self._rows.append((pivot, {k: v * inv for k, v in vec.items()}))
        self._steps.append((inv, steps))
        return None

    def _combine(self, steps: list) -> dict:
        """Coordinates over the accepted vectors of sum(c * row[index])."""
        coords = self._coords
        for inv, row_steps in self._steps[len(coords):]:
            combo: dict = {}
            for index, c in row_steps:
                axpy(combo, coords[index].items(), -c)
            combo = {k: v * inv for k, v in combo.items()}
            combo[len(coords)] = inv
            coords.append(combo)
        out: dict = {}
        for index, c in steps:
            axpy(out, coords[index].items(), c)
        return out

    def add(self, vec) -> bool:
        """Add a vector; returns True if it enlarged the span."""
        return self._place(vec) is None

    def express(self, vec) -> dict | None:
        """Coordinates of vec over the accepted vectors, or None if outside.

        Keys are acceptance indices: 0 is the first vector that enlarged the
        span.
        """
        vec = self._sparse(vec)
        steps = self._reduce(vec)
        return None if vec else self._combine(steps)

    @property
    def dim(self) -> int:
        return len(self._rows)


def column_kernel(columns: Sequence) -> list[dict]:
    """Reduced-echelon basis of {x : sum_j x_j columns[j] = 0}.

    Columns are sparse dicts or dense sequences; the basis vectors are sparse
    dicts over column positions, one per column that depends on earlier ones.
    """
    span = IncrementalSpan()
    independent = []  # positions of the columns that enlarged the span
    basis = []
    for j, col in enumerate(columns):
        steps = span._place(col)
        if steps is None:
            independent.append(j)
        else:
            vec = {independent[i]: -c for i, c in span._combine(steps).items()}
            vec[j] = ONE
            basis.append(vec)
    return basis


def span_dim(vectors: Iterable) -> int:
    """Dimension of the span of the given vectors."""
    span = IncrementalSpan()
    for v in vectors:
        span._place(v)
    return span.dim


def rank(A: RationalMatrix) -> int:
    """Exact rank over Q."""
    return span_dim(A.entries)


def kernel_basis(A: RationalMatrix) -> list[tuple[Fraction, ...]]:
    """Reduced-echelon basis of the right null space (free variable set to 1)."""
    return [tuple(vec.get(j, ZERO) for j in range(A.cols))
            for vec in column_kernel(list(zip(*A.entries)))]


def solve(A: RationalMatrix, b: Sequence) -> tuple[Fraction, ...] | None:
    """One exact solution of A x = b (free variables set to 0), or None."""
    b = [scalar(x) for x in b]
    if len(b) != A.rows:
        raise ShapeMismatch("right-hand side length does not match row count")
    span = IncrementalSpan()
    independent = [j for j, col in enumerate(zip(*A.entries)) if span._place(col) is None]
    coords = span.express(b)
    if coords is None:
        return None
    x = [ZERO] * A.cols
    for i, c in coords.items():
        x[independent[i]] = c
    return tuple(x)


def quotient_dim(ambient_dim: int, image: Sequence[Sequence], kernel_sub: Sequence[Sequence]) -> int:
    """dim span(kernel_sub) - dim span(image), checking the containment."""
    for v in list(image) + list(kernel_sub):
        if len(v) != ambient_dim:
            raise ShapeMismatch("vector length does not match ambient dimension")
    span = IncrementalSpan()
    k_dim = sum(span._place(v) is None for v in kernel_sub)
    if any(span._place(v) is None for v in image):
        raise ImageNotContained(
            "an image vector lies outside the kernel span "
            "(differential sign or complex construction bug)"
        )
    return k_dim - span_dim(image)
